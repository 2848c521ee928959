(* Golden-output regression tests: Report.run_to_string at scale 0.05
   for fig1, tab1, fig5, fig6, fig8, fig9, tab2, tab3 and fig10,
   pinned against committed expect-files, and required to render
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
      (* fig1/tab1 read characterizations from the disk cache; the
         trace-sim sweeps persist their rendered rows (the dispatch
         work units) and serve those back warm; only the tables with
         neither characterization nor row artifacts must not pretend
         to cache traffic. *)
      let served = (C.Engine.stats ()).cache_hits - hits_before in
      match id with
      | C.Experiment.Tab2 | C.Experiment.Tab3 ->
          Alcotest.(check int) "no cache traffic" 0 served
      | _ -> Alcotest.(check bool) "warm run served from disk" true (served > 0))

let () =
  Alcotest.run "golden"
    [ ("expect",
       List.map
         (fun id ->
           Alcotest.test_case (C.Experiment.to_string id) `Slow
             (check_all_paths id))
         C.Experiment.
           [ Fig1; Tab1; Fig5; Fig6; Fig8; Fig8p; Fig9; Tab2; Tab3; Fig10;
             Fig10p ]) ]
