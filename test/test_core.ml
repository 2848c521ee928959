(* Tests for the core library: experiment registry, reports, paper
   data, and the rebalancing engine. *)

module C = Repro_core
module W = Repro_workload
module U = Repro_uarch

let test_experiment_roundtrip () =
  List.iter
    (fun id ->
      match C.Experiment.of_string (C.Experiment.to_string id) with
      | Some id' ->
          Alcotest.(check string) "roundtrip" (C.Experiment.to_string id)
            (C.Experiment.to_string id')
      | None -> Alcotest.fail "of_string failed")
    C.Experiment.all;
  let keys = List.map C.Experiment.to_string C.Experiment.all in
  Alcotest.(check int) "ids are distinct" (List.length C.Experiment.all)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check (option string)) "unknown id" None
    (Option.map C.Experiment.to_string (C.Experiment.of_string "fig99"))

let test_experiment_count () =
  Alcotest.(check int) "16 experiments (13 figures + 3 tables)" 16
    (List.length C.Experiment.all)

let test_experiment_describe_nonempty () =
  List.iter
    (fun id ->
      Alcotest.(check bool) "non-empty description" true
        (String.length (C.Experiment.describe id) > 10))
    C.Experiment.all

(* The dispatch task space is part of the wire protocol: pin every
   task id, in order, and each id's count. *)
let test_task_decomposition () =
  let ids =
    List.concat_map
      (fun id -> List.map C.Experiment.task_id (C.Experiment.tasks_for id))
      C.Experiment.all
  in
  Alcotest.(check int) "task count" 553 (List.length ids);
  Alcotest.(check string) "task ids digest" "5b9dd8c5db4fbcc747613b6049512ae2"
    (Digest.to_hex (Digest.string (String.concat "\n" ids)));
  List.iter
    (fun id ->
      let expect =
        match id with
        | C.Experiment.Fig6 -> 9
        | Fig8p -> 82
        | Fig9 -> 46
        | Fig11 -> 6
        | Tab2 | Tab3 -> 0
        | _ -> 41
      in
      Alcotest.(check int) (C.Experiment.to_string id) expect
        (List.length (C.Experiment.tasks_for id)))
    C.Experiment.all

let test_tab2_tab3_run () =
  (* The pure-model experiments run instantly and must produce rows. *)
  List.iter
    (fun id ->
      let tables = C.Experiment.run ~scale:0.01 id in
      Alcotest.(check bool) "has tables" true (tables <> []);
      List.iter
        (fun t ->
          Alcotest.(check bool) "renders" true
            (String.length (Repro_util.Table.render t) > 50))
        tables)
    [ C.Experiment.Tab2; C.Experiment.Tab3 ]

let test_report_string () =
  let s = C.Report.run_to_string ~scale:0.01 C.Experiment.Tab3 in
  Alcotest.(check bool) "header present" true
    (String.length s > 100 && String.sub s 0 4 = "====")

let test_paper_data_consistency () =
  (* Table III rest-of-core arithmetic must close. *)
  let open C.Paper_data in
  let sum_b =
    tab3_baseline_icache.area_mm2 +. tab3_baseline_bp.area_mm2
    +. tab3_baseline_btb.area_mm2
  in
  Alcotest.(check bool) "front-end under a quarter of the core" true
    (sum_b /. tab3_baseline_core.area_mm2 < 0.25);
  Alcotest.(check int) "fig1 has all four suites" 4
    (List.length fig1_branch_pct);
  Alcotest.(check int) "fig5 covers nine configs" 9
    (List.length (snd (List.hd fig5_mpki)))

let test_subsets_resolve () =
  List.iter
    (fun name -> ignore (W.Suites.find name))
    (W.Suites.fig6_subset @ W.Suites.fig9_subset @ W.Suites.fig11_subset)

let test_rebalance_estimate () =
  let profiles = [ W.Suites.find "FT"; W.Suites.find "swim" ] in
  let e =
    C.Rebalance.estimate ~insts:80_000 U.Frontend_config.tailored profiles
  in
  Alcotest.(check bool) "area positive" true (e.area_mm2 > 0.0);
  Alcotest.(check bool) "slowdown sane" true
    (e.slowdown > 0.8 && e.slowdown < 1.5);
  Alcotest.(check bool) "worst >= avg" true (e.slowdown >= e.avg_slowdown -. 1e-9)

let test_rebalance_recommends_small_for_hpc () =
  (* Loop-dominated workloads must admit a front-end no bigger than
     the baseline, with rationale lines produced. *)
  let profiles = [ W.Suites.find "FT"; W.Suites.find "swim";
                   W.Suites.find "bwaves" ] in
  let r =
    C.Rebalance.recommend ~insts:100_000 ~max_slowdown:0.05 profiles
  in
  Alcotest.(check bool) "chose a design at most baseline-sized" true
    (r.chosen.area_mm2 <= r.baseline.area_mm2 +. 1e-9);
  Alcotest.(check bool) "rationale" true (List.length r.rationale >= 2);
  Alcotest.(check bool) "candidates sorted by area" true
    (let rec sorted = function
       | (a : C.Rebalance.estimate) :: (b :: _ as rest) ->
           a.area_mm2 <= b.area_mm2 +. 1e-9 && sorted rest
       | _ -> true
     in
     sorted r.candidates)

let test_rebalance_rejects_empty () =
  Alcotest.check_raises "no profiles"
    (Invalid_argument "Rebalance.estimate: no profiles") (fun () ->
      ignore (C.Rebalance.estimate U.Frontend_config.baseline []))

let test_default_candidates_include_tailored_shape () =
  Alcotest.(check bool) "sweep covers the paper's tailored point" true
    (List.exists
       (fun (c : U.Frontend_config.t) ->
         c.icache_bytes = 16384 && c.icache_line = 128 && c.bp_loop
         && c.btb_entries = 256)
       C.Rebalance.default_candidates)

let test_ablation_structure () =
  Alcotest.(check int) "8 variants" 8 (List.length C.Ablation.variants);
  let names = List.map (fun v -> v.C.Ablation.vname) C.Ablation.variants in
  Alcotest.(check bool) "baseline first" true (List.hd names = "baseline");
  Alcotest.(check bool) "tailored last" true
    (List.nth names 7 = "tailored (all)")

let test_ablation_run () =
  let rows = C.Ablation.run ~insts:60_000 [ W.Suites.find "FT" ] in
  Alcotest.(check int) "one row per variant" 8 (List.length rows);
  let baseline = List.hd rows and tailored = List.nth rows 7 in
  Alcotest.(check (float 1e-9)) "baseline saves nothing" 0.0
    baseline.C.Ablation.area_saving;
  Alcotest.(check (float 1e-9)) "baseline slowdown 1.0" 1.0
    baseline.C.Ablation.avg_slowdown;
  Alcotest.(check bool) "tailored saves the most area" true
    (List.for_all
       (fun r -> r.C.Ablation.area_saving <= tailored.C.Ablation.area_saving)
       rows);
  Alcotest.(check bool) "renders" true
    (String.length (Repro_util.Table.render (C.Ablation.table rows)) > 200)

let test_thread_scaling_share () =
  (* The paper's example: fma3d/nab ~4% serial at 8 threads grow to
     ~18-19% at 64 threads. *)
  let share = C.Thread_scaling.serial_share_at ~base_share:0.04 ~base_threads:8 64 in
  Alcotest.(check bool) (Printf.sprintf "4%% at 8 -> %.0f%% at 64" (share *. 100.))
    true
    (share > 0.17 && share < 0.32);
  Alcotest.(check (float 1e-9)) "identity at base" 0.04
    (C.Thread_scaling.serial_share_at ~base_share:0.04 ~base_threads:8 8);
  Alcotest.(check (float 1e-9)) "zero stays zero" 0.0
    (C.Thread_scaling.serial_share_at ~base_share:0.0 ~base_threads:8 64)

let test_thread_scaling_sweep () =
  let p = W.Suites.find "CoEVP" in
  let points = C.Thread_scaling.sweep ~insts:700_000 p in
  Alcotest.(check int) "four core counts" 4 (List.length points);
  let shares = List.map (fun pt -> pt.C.Thread_scaling.serial_share) points in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "serial share grows with cores" true (increasing shares);
  List.iter
    (fun pt ->
      (* The asymmetric design must never lose materially to the
         baseline (its master IS a baseline core); the tailored CMP
         may, since its master pays for the serial sections. *)
      Alcotest.(check bool) "asymmetric ~ baseline" true
        (pt.C.Thread_scaling.asymmetric_vs_baseline <= 1.02))
    points;
  (* At manycore scale the serial bottleneck dominates: the tailored
     CMP must clearly pay for it while the asymmetric CMP does not. *)
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "tailored pays at 64 cores" true
    (last.C.Thread_scaling.tailored_vs_baseline
    > last.C.Thread_scaling.asymmetric_vs_baseline +. 0.005)

(* ------------------------------------------------------------------ *)
(* Persistent cache: round-trips, corruption tolerance, key
   sensitivity, disk clearing. *)

let with_test_cache f =
  let dir = "core_cache_dir" in
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.Cache.clear ();
      C.Cache.set_enabled false;
      (try Sys.rmdir dir with Sys_error _ -> ()))
    (fun () -> f ())

let test_cache_roundtrip () =
  with_test_cache (fun () ->
      let p = W.Suites.find "FT" in
      let k = C.Cache.key ~profile:p ~scale:0.25 ~kind:"test" in
      Alcotest.(check bool) "miss before store" true
        ((C.Cache.find k : float list option) = None);
      C.Cache.store k [ 1.5; 2.25; -3.0 ];
      Alcotest.(check (option (list (float 0.0)))) "hit after store"
        (Some [ 1.5; 2.25; -3.0 ])
        (C.Cache.find k);
      (* Same profile and kind at another scale is a different key. *)
      let k' = C.Cache.key ~profile:p ~scale:0.5 ~kind:"test" in
      Alcotest.(check bool) "scale change misses" true
        ((C.Cache.find k' : float list option) = None);
      (* Another profile at the same scale is a different key too. *)
      let other =
        C.Cache.key ~profile:(W.Suites.find "swim") ~scale:0.25 ~kind:"test"
      in
      Alcotest.(check bool) "distinct files per profile" true
        (C.Cache.path other <> C.Cache.path k))

let corrupt path f =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (f s))

let test_cache_corruption_tolerated () =
  with_test_cache (fun () ->
      let p = W.Suites.find "FT" in
      let k = C.Cache.key ~profile:p ~scale:0.25 ~kind:"test" in
      let stored = [ 42.0 ] in
      (* Truncated entry: silent miss, then recompute via memoize. *)
      C.Cache.store k stored;
      corrupt (C.Cache.path k) (fun s ->
          String.sub s 0 (String.length s / 2));
      Alcotest.(check bool) "truncated file misses" true
        ((C.Cache.find k : float list option) = None);
      Alcotest.(check (list (float 0.0))) "memoize recomputes" stored
        (C.Cache.memoize k (fun () -> stored));
      Alcotest.(check (option (list (float 0.0)))) "and re-stores"
        (Some stored) (C.Cache.find k);
      (* Garbage entry. *)
      corrupt (C.Cache.path k) (fun _ -> "not a cache entry at all");
      Alcotest.(check bool) "garbage file misses" true
        ((C.Cache.find k : float list option) = None);
      (* Flipped payload byte: the digest catches it. *)
      C.Cache.store k stored;
      corrupt (C.Cache.path k) (fun s ->
          let b = Bytes.of_string s in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          Bytes.to_string b);
      Alcotest.(check bool) "bit-rot misses" true
        ((C.Cache.find k : float list option) = None))

let test_cache_clear_disk () =
  with_test_cache (fun () ->
      let p = W.Suites.find "FT" in
      C.Cache.store (C.Cache.key ~profile:p ~scale:0.25 ~kind:"test") [ 1.0 ];
      C.Cache.store (C.Cache.key ~profile:p ~scale:0.5 ~kind:"test") [ 2.0 ];
      Alcotest.(check int) "two entries on disk" 2 (C.Cache.entries ());
      (* Without ~disk the persistent entries survive. *)
      C.Experiment.clear_cache ();
      Alcotest.(check int) "memory-only clear keeps disk" 2
        (C.Cache.entries ());
      C.Experiment.clear_cache ~disk:true ();
      Alcotest.(check int) "disk clear empties the directory" 0
        (C.Cache.entries ()))

let test_cache_disabled_bypasses () =
  with_test_cache (fun () ->
      C.Cache.set_enabled false;
      let k =
        C.Cache.key ~profile:(W.Suites.find "FT") ~scale:0.25 ~kind:"test"
      in
      C.Cache.store k [ 9.0 ];
      Alcotest.(check int) "no file written" 0 (C.Cache.entries ());
      Alcotest.(check bool) "find misses" true
        ((C.Cache.find k : float list option) = None);
      Alcotest.(check (list (float 0.0))) "memoize computes directly" [ 7.0 ]
        (C.Cache.memoize k (fun () -> [ 7.0 ])))

(* In-flight temp files must be invisible: never counted by entries,
   never deleted by clear. A ".bin"-suffixed temp (the old behaviour)
   failed both ways. *)
let test_cache_tmp_files_invisible () =
  with_test_cache (fun () ->
      let p = W.Suites.find "FT" in
      let k = C.Cache.key ~profile:p ~scale:0.25 ~kind:"test" in
      C.Cache.store k [ 1.0 ];
      Alcotest.(check int) "one finished entry" 1 (C.Cache.entries ());
      (* Simulate another writer's in-flight temp file, exactly as
         Cache.store creates it (exclusive open, .tmp suffix). *)
      let tmp, oc =
        Filename.open_temp_file ~temp_dir:(C.Cache.dir ()) "tmp-cache" ".tmp"
      in
      output_string oc "half-written";
      close_out oc;
      Alcotest.(check int) "temp file not counted" 1 (C.Cache.entries ());
      C.Cache.clear ();
      Alcotest.(check bool) "clear leaves the in-flight temp alone" true
        (Sys.file_exists tmp);
      Alcotest.(check int) "clear removed the finished entry" 0
        (C.Cache.entries ());
      (* The writer's rename still lands after the clear: the entry is
         not lost. *)
      Sys.rename tmp (C.Cache.path k);
      Alcotest.(check int) "renamed entry visible" 1 (C.Cache.entries ()))

(* store racing clear: stores must never be lost to a concurrent
   clear deleting their temp file, and no temp files may linger. *)
let test_cache_store_concurrent_clear () =
  with_test_cache (fun () ->
      let p = W.Suites.find "FT" in
      let rounds = 60 in
      let writer =
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              let k =
                C.Cache.key ~profile:p ~scale:(float_of_int i) ~kind:"race"
              in
              C.Cache.store k [ float_of_int i ]
            done)
      in
      for _ = 1 to 20 do
        C.Cache.clear ();
        Domain.cpu_relax ()
      done;
      Domain.join writer;
      (* Every store that began after the last clear survived; at
         minimum a fresh store with no concurrent clear must land. *)
      let k = C.Cache.key ~profile:p ~scale:0.125 ~kind:"race" in
      C.Cache.store k [ 42.0 ];
      Alcotest.(check (option (list (float 0.0)))) "no lost entry"
        (Some [ 42.0 ]) (C.Cache.find k);
      let leftovers =
        List.filter
          (fun f -> Filename.check_suffix f ".tmp")
          (Array.to_list (Sys.readdir (C.Cache.dir ())))
      in
      Alcotest.(check (list string)) "no temp files linger" [] leftovers)

(* The narrowed handlers: Sys_error still reads as a miss / no-op,
   but a programming error (Marshal on a closure) now propagates
   instead of being silently swallowed. *)
let test_cache_store_propagates_non_io_failures () =
  with_test_cache (fun () ->
      let k =
        C.Cache.key ~profile:(W.Suites.find "FT") ~scale:0.25 ~kind:"test"
      in
      Alcotest.(check bool) "marshalling a closure raises" true
        (match C.Cache.store k (fun x -> x + 1) with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check int) "and leaves no temp or entry behind" 0
        (Array.length (Sys.readdir (C.Cache.dir ()))))

(* ------------------------------------------------------------------ *)
(* Hot renders: memoized key digests, one read per row, no Engine
   batch for memo hits, Table III computed once. *)

(* The key formula as it stood before the digest memo, recomputed
   from scratch. *)
let reference_key_file ~(profile : W.Profile.t) ~scale ~kind =
  let sanitize =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c
      | _ -> '_')
  in
  let fingerprint =
    Printf.sprintf "v%s|%s|%h|%s" C.Cache.version
      (Digest.to_hex (Digest.string (W.Profile_io.to_string profile)))
      scale kind
  in
  Printf.sprintf "%s-%s-%s.bin" kind (sanitize profile.name)
    (Digest.to_hex (Digest.string fingerprint))

let key_file ~profile ~scale ~kind =
  Filename.basename (C.Cache.path (C.Cache.key ~profile ~scale ~kind))

let test_key_memo_matches_formula () =
  List.iter
    (fun (p : W.Profile.t) ->
      let expect = reference_key_file ~profile:p ~scale:0.05 ~kind:"row.t:1" in
      (* The first call may fill the memo; the second must hit it. *)
      for _ = 1 to 2 do
        Alcotest.(check string) p.name expect
          (key_file ~profile:p ~scale:0.05 ~kind:"row.t:1")
      done)
    W.Suites.all

let test_key_memo_same_name_other_profile () =
  let p = W.Suites.find "FT" in
  let k () = key_file ~profile:p ~scale:0.05 ~kind:"charz" in
  let before = k () in
  let q = { p with total_insts = p.total_insts + 1 } in
  let kq = key_file ~profile:q ~scale:0.05 ~kind:"charz" in
  Alcotest.(check string) "the copy keys by its own digest"
    (reference_key_file ~profile:q ~scale:0.05 ~kind:"charz") kq;
  Alcotest.(check bool) "a changed field changes the key" true (kq <> before);
  Alcotest.(check string) "the original still keys as before" before (k ())

let test_key_memo_concurrent () =
  (* Fresh physical copies under the same names make both domains
     digest and replace memo entries while the other reads them. *)
  let items =
    List.concat_map
      (fun (p : W.Profile.t) -> List.init 4 (fun _ -> { p with name = p.name }))
      W.Suites.all
  in
  let expect (p : W.Profile.t) =
    reference_key_file ~profile:p ~scale:0.25 ~kind:"cmp"
  in
  let got =
    C.Engine.map ~jobs:2 (fun p -> key_file ~profile:p ~scale:0.25 ~kind:"cmp")
      items
  in
  Alcotest.(check (list string)) "2 domains agree with the formula"
    (List.map expect items) got

let hot_scale = 0.01

let count_spans name =
  let rec count (s : Repro_util.Telemetry.span) =
    (if s.sname = name then 1 else 0)
    + List.fold_left (fun n c -> n + count c) 0 s.schildren
  in
  List.fold_left (fun n s -> n + count s) 0 (Repro_util.Telemetry.spans ())

let with_hot_cache f =
  with_test_cache (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Repro_util.Telemetry.reset ();
          Repro_util.Telemetry.set_enabled false;
          C.Experiment.clear_cache ())
        f)

let test_warm_render_reads_each_row_once () =
  with_hot_cache (fun () ->
      List.iter
        (fun id ->
          let cold = C.Report.run_to_string ~scale:hot_scale ~jobs:2 id in
          C.Experiment.clear_cache ();
          Repro_util.Telemetry.set_enabled true;
          Repro_util.Telemetry.reset ();
          let warm = C.Report.run_to_string ~scale:hot_scale ~jobs:2 id in
          let finds = count_spans "cache.find" in
          let hits = Repro_util.Telemetry.counter "cache.hits" in
          Repro_util.Telemetry.set_enabled false;
          let name = C.Experiment.to_string id in
          let tasks = List.length (C.Experiment.tasks_for id) in
          Alcotest.(check string) (name ^ " renders the same warm") cold warm;
          Alcotest.(check int) (name ^ ": every row a hit") tasks hits;
          Alcotest.(check int) (name ^ ": one cache.find per task") tasks finds)
        [ C.Experiment.Fig8p; C.Experiment.Fig9 ])

let test_memoized_render_runs_no_batch () =
  with_hot_cache (fun () ->
      List.iter
        (fun id ->
          let start = C.Engine.stats () in
          let first = C.Report.run_to_string ~scale:hot_scale ~jobs:2 id in
          let before = C.Engine.stats () in
          let name = C.Experiment.to_string id in
          Alcotest.(check bool) (name ^ ": the first render batches") true
            (before.batches > start.batches);
          let second = C.Report.run_to_string ~scale:hot_scale ~jobs:2 id in
          let after = C.Engine.stats () in
          Alcotest.(check string) (name ^ " renders the same") first second;
          Alcotest.(check int) (name ^ ": no Engine batch") before.batches
            after.batches;
          Alcotest.(check int) (name ^ ": no Engine task") before.tasks_run
            after.tasks_run)
        [ C.Experiment.Fig1; C.Experiment.Fig10 ])

let test_tab3_memo () =
  let golden =
    In_channel.with_open_bin "golden/tab3.expected" In_channel.input_all
  in
  let render () = C.Report.run_to_string ~scale:0.05 C.Experiment.Tab3 in
  Alcotest.(check string) "first render matches the golden" golden (render ());
  (* Tables are fresh per call: mutating one changes no later render. *)
  List.iter Repro_util.Table.add_separator
    (C.Experiment.run ~scale:0.05 C.Experiment.Tab3);
  Alcotest.(check string) "second render matches the golden" golden (render ())

let () =
  Alcotest.run "core"
    [ ("experiment",
       [ Alcotest.test_case "roundtrip" `Quick test_experiment_roundtrip;
         Alcotest.test_case "count" `Quick test_experiment_count;
         Alcotest.test_case "describe" `Quick test_experiment_describe_nonempty;
         Alcotest.test_case "task decomposition" `Quick test_task_decomposition;
         Alcotest.test_case "tab2/tab3 run" `Quick test_tab2_tab3_run;
         Alcotest.test_case "report string" `Quick test_report_string ]);
      ("paper data",
       [ Alcotest.test_case "consistency" `Quick test_paper_data_consistency;
         Alcotest.test_case "subsets resolve" `Quick test_subsets_resolve ]);
      ("ablation",
       [ Alcotest.test_case "structure" `Quick test_ablation_structure;
         Alcotest.test_case "run" `Quick test_ablation_run ]);
      ("thread scaling",
       [ Alcotest.test_case "serial share model" `Quick test_thread_scaling_share;
         Alcotest.test_case "sweep" `Quick test_thread_scaling_sweep ]);
      ("cache",
       [ Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
         Alcotest.test_case "corruption tolerated" `Quick
           test_cache_corruption_tolerated;
         Alcotest.test_case "clear disk" `Quick test_cache_clear_disk;
         Alcotest.test_case "disabled bypasses" `Quick
           test_cache_disabled_bypasses;
         Alcotest.test_case "temp files invisible" `Quick
           test_cache_tmp_files_invisible;
         Alcotest.test_case "store racing clear" `Quick
           test_cache_store_concurrent_clear;
         Alcotest.test_case "non-IO failures propagate" `Quick
           test_cache_store_propagates_non_io_failures ]);
      ("hot render",
       [ Alcotest.test_case "key memo matches the formula" `Quick
           test_key_memo_matches_formula;
         Alcotest.test_case "key memo: same name, other profile" `Quick
           test_key_memo_same_name_other_profile;
         Alcotest.test_case "key memo from 2 domains" `Quick
           test_key_memo_concurrent;
         Alcotest.test_case "warm render reads each row once" `Slow
           test_warm_render_reads_each_row_once;
         Alcotest.test_case "memoized render runs no batch" `Slow
           test_memoized_render_runs_no_batch;
         Alcotest.test_case "tab3 computed once" `Quick test_tab3_memo ]);
      ("rebalance",
       [ Alcotest.test_case "estimate" `Quick test_rebalance_estimate;
         Alcotest.test_case "recommends small for HPC" `Slow
           test_rebalance_recommends_small_for_hpc;
         Alcotest.test_case "rejects empty" `Quick test_rebalance_rejects_empty;
         Alcotest.test_case "candidate sweep shape" `Quick
           test_default_candidates_include_tailored_shape ]) ]
