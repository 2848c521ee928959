(* Golden-output regression tests: Report.run_to_string at scale 0.05
   for every experiment id (fig1-fig9, fig8p, tab1-tab3, fig10, fig10p
   and fig11), pinned against committed expect-files, and required to render
   identically through every execution path — sequential, parallel,
   uncached and disk-cached. Regenerate an expect file after an
   intentional model change with:

     dune exec bin/repro_cli.exe -- experiment ID --scale 0.05 \
       > test/golden/ID.expected *)

module C = Repro_core

let scale = 0.05

let golden id =
  let path =
    Filename.concat "golden" (C.Experiment.to_string id ^ ".expected")
  in
  In_channel.with_open_bin path In_channel.input_all

let cache_dir = "golden_cache_dir"

let with_disk_cache f =
  C.Cache.set_dir cache_dir;
  C.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.Experiment.clear_cache ~disk:true ();
      C.Cache.set_enabled false;
      (try Sys.rmdir cache_dir with Sys_error _ -> ()))
    f

let check_all_paths id () =
  let expect = golden id in
  let run ~jobs =
    C.Experiment.clear_cache ();
    C.Report.run_to_string ~scale ~jobs id
  in
  C.Cache.set_enabled false;
  Alcotest.(check string) "sequential, uncached" expect (run ~jobs:1);
  Alcotest.(check string) "parallel, uncached" expect (run ~jobs:4);
  with_disk_cache (fun () ->
      Alcotest.(check string) "parallel, cold cache" expect (run ~jobs:4);
      let hits_before = (C.Engine.stats ()).cache_hits in
      Alcotest.(check string) "sequential, warm cache" expect (run ~jobs:1);
      (* A warm run reads exactly the artifacts [tasks_for] names (the
         dispatch work units), each once, and every one is a hit:
         none for the analytical tables. *)
      let served = (C.Engine.stats ()).cache_hits - hits_before in
      Alcotest.(check int) "warm run reads exactly tasks_for"
        (List.length (C.Experiment.tasks_for id))
        served)

(* Simulated instructions behind one uncached report at this scale
   (every figure's trace passes summed): a kernel or scheduling change
   that adds or drops a pass fails here. Measured with
   [REPRO_CACHE=0 repro_cli report --scale 0.05 --trace]. *)
let report_sim_insts = 43_950_000

let check_pass_count () =
  let module T = Repro_util.Telemetry in
  C.Cache.set_enabled false;
  C.Experiment.clear_cache ();
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled false)
    (fun () -> ignore (C.Report.run_all_to_string ~scale ~jobs:2 ()));
  Alcotest.(check int) "experiment.sim_insts" report_sim_insts
    (T.counter "experiment.sim_insts")

let () =
  Alcotest.run "golden"
    [ ("expect",
       List.map
         (fun id ->
           Alcotest.test_case (C.Experiment.to_string id) `Slow
             (check_all_paths id))
         C.Experiment.
           [ Fig1; Fig2; Tab1; Fig3; Fig4; Fig5; Fig6; Fig7; Fig8; Fig8p; Fig9;
             Tab2; Tab3; Fig10; Fig10p; Fig11 ]);
      ("passes",
       [ Alcotest.test_case "cold report sim_insts" `Slow check_pass_count ]) ]
