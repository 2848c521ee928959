(* Tests for the multicore experiment engine: determinism under
   concurrency, order preservation, clean failure propagation, and
   the statistics counters. *)

module C = Repro_core
module W = Repro_workload
module A = Repro_analysis

(* ------------------------------------------------------------------ *)
(* Plumbing: Engine.map must be List.map for any pool size. *)

let qcheck_map_is_list_map =
  QCheck.Test.make ~name:"Engine.map f = List.map f for any pool size"
    ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      C.Engine.map ~jobs (fun x -> (x * 7919) mod 1009) xs
      = List.map (fun x -> (x * 7919) mod 1009) xs)

(* ------------------------------------------------------------------ *)
(* The tentpole property: for random subsets of the benchmark suite
   and random pool sizes, a parallel characterization run is
   field-for-field identical to a sequential one. Characterizations
   contain no closures, so Marshal bytes witness full structural
   equality; a few derived metrics are compared exactly on top. *)

let profiles = Array.of_list W.Suites.all

let characterize (p : W.Profile.t) =
  (* Small fixed budget: the property is about scheduling, not
     fidelity, and runs dozens of traces. *)
  A.Characterization.of_profile ~insts:50_000 p

let subset_gen =
  (* (pool size, distinct profile indices) *)
  QCheck.(
    pair (int_range 1 8)
      (list_of_size Gen.(2 -- 5) (int_range 0 (Array.length profiles - 1))))

let qcheck_parallel_characterization_deterministic =
  QCheck.Test.make
    ~name:"parallel characterization == sequential (field-for-field)"
    ~count:8 subset_gen
    (fun (jobs, idxs) ->
      let ps = List.map (fun i -> profiles.(i)) idxs in
      let seq = List.map characterize ps in
      let par = C.Engine.map ~jobs characterize ps in
      List.for_all2
        (fun (a : A.Characterization.t) (b : A.Characterization.t) ->
          let total = A.Branch_mix.Total in
          let exact f = Float.equal (f a) (f b) in
          String.equal a.name b.name
          && exact (fun c -> A.Branch_mix.branch_fraction c.mix total)
          && exact (fun c -> A.Branch_bias.biased_fraction c.bias total)
          && exact (fun c -> float_of_int c.footprint.static_total)
          && exact (fun c -> A.Bblock_stats.avg_block_bytes c.bblocks total)
          && String.equal (Marshal.to_string a []) (Marshal.to_string b []))
        seq par)

(* Experiment.run must render identical tables for any pool size,
   through the memo/cache layers included. *)
let test_experiment_run_jobs_invariant () =
  C.Cache.set_enabled false;
  let render jobs =
    C.Experiment.clear_cache ();
    C.Report.run_to_string ~scale:0.02 ~jobs C.Experiment.Fig4
  in
  let seq = render 1 in
  Alcotest.(check string) "fig4 at -j3 == -j1" seq (render 3);
  Alcotest.(check string) "fig4 at -j8 == -j1" seq (render 8)

(* ------------------------------------------------------------------ *)
(* Failure handling: a raising task fails the run cleanly — the
   exception surfaces in the caller, every domain is joined (no
   deadlock, no leak), and the engine remains usable. *)

exception Boom of int

let test_exception_propagates () =
  let inputs = List.init 20 Fun.id in
  Alcotest.check_raises "first failure surfaces" (Boom 13) (fun () ->
      ignore
        (C.Engine.map ~jobs:4
           (fun i -> if i = 13 then raise (Boom 13) else i)
           inputs));
  (* The pool is per-call: after a failed run the engine must still
     complete fresh work (a deadlocked or leaked domain would hang
     here, tripping the test runner's timeout). *)
  Alcotest.(check (list int)) "engine usable after failure"
    (List.map succ inputs)
    (C.Engine.map ~jobs:4 succ inputs)

let test_exception_lowest_index_wins () =
  (* Two raising tasks: the surfaced failure is the lowest-index one,
     independent of scheduling. *)
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest index" (Boom 3) (fun () ->
        ignore
          (C.Engine.map ~jobs:4
             (fun i -> if i >= 3 then raise (Boom i) else i)
             (List.init 16 Fun.id)))
  done

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let test_stats_counters () =
  C.Engine.reset_stats ();
  ignore (C.Engine.map ~jobs:1 succ [ 1; 2; 3 ]);
  ignore (C.Engine.map ~jobs:4 succ [ 1; 2; 3; 4; 5 ]);
  let s = C.Engine.stats () in
  Alcotest.(check int) "tasks counted" 8 s.tasks_run;
  Alcotest.(check int) "only the parallel call batches" 1 s.batches;
  Alcotest.(check int) "domain peak" 4 s.max_domains;
  C.Engine.note_cache_hit ();
  C.Engine.note_cache_hit ();
  C.Engine.note_cache_miss ();
  let s = C.Engine.stats () in
  Alcotest.(check int) "hits" 2 s.cache_hits;
  Alcotest.(check int) "misses" 1 s.cache_misses;
  C.Engine.reset_stats ();
  Alcotest.(check int) "reset" 0 (C.Engine.stats ()).tasks_run

let test_default_jobs () =
  C.Engine.set_default_jobs 3;
  Alcotest.(check int) "set_default_jobs" 3 (C.Engine.default_jobs ());
  C.Engine.set_default_jobs 1000;
  Alcotest.(check int) "clamped high" 64 (C.Engine.default_jobs ());
  C.Engine.set_default_jobs (-2);
  Alcotest.(check int) "clamped low" 1 (C.Engine.default_jobs ());
  C.Engine.set_default_jobs 1

let qcheck tests = Qseed.all tests

let () =
  Alcotest.run "engine"
    [ ("map", qcheck [ qcheck_map_is_list_map ]);
      ("determinism",
       qcheck [ qcheck_parallel_characterization_deterministic ]
       @ [ Alcotest.test_case "experiment run jobs-invariant" `Slow
             test_experiment_run_jobs_invariant ]);
      ("failure",
       [ Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "lowest index wins" `Quick
           test_exception_lowest_index_wins ]);
      ("stats",
       [ Alcotest.test_case "counters" `Quick test_stats_counters;
         Alcotest.test_case "default jobs" `Quick test_default_jobs ]) ]
