(* Tests for the extension modules: perceptron, two-level, RAS,
   I-cache prefetch, predictability, working sets, CSV export and the
   extension studies. *)

module F = Repro_frontend
module A = Repro_analysis
module W = Repro_workload
module C = Repro_core
module Inst = Repro_isa.Inst

let drive predictor feed =
  let miss = ref 0 and n = ref 0 in
  feed (fun pc taken ->
      incr n;
      if predictor.F.Predictor.step pc taken <> taken then incr miss);
  float_of_int !miss /. float_of_int (max 1 !n)

(* ------------------------------------------------------------------ *)
(* Perceptron *)

let test_perceptron_biased () =
  let err =
    drive
      (F.Perceptron.pack (F.Perceptron.create ()))
      (fun f -> for _ = 1 to 3000 do f 0x4000 true done)
  in
  Alcotest.(check bool) (Printf.sprintf "err %.3f < 0.01" err) true (err < 0.01)

let test_perceptron_alternating () =
  let v = ref false in
  let err =
    drive
      (F.Perceptron.pack (F.Perceptron.create ()))
      (fun f ->
        for _ = 1 to 3000 do
          v := not !v;
          f 0x4100 !v
        done)
  in
  Alcotest.(check bool) (Printf.sprintf "err %.3f < 0.02" err) true (err < 0.02)

let test_perceptron_correlated () =
  (* Outcome = same as two branches ago: linearly separable. *)
  let hist = ref [ false; false ] in
  let err =
    drive
      (F.Perceptron.pack (F.Perceptron.create ()))
      (fun f ->
        for i = 1 to 5000 do
          let out = List.nth !hist 1 <> (i mod 7 = 0) in
          f 0x4200 out;
          hist := [ out; List.hd !hist ]
        done)
  in
  Alcotest.(check bool) (Printf.sprintf "err %.3f < 0.25" err) true (err < 0.25)

let test_perceptron_storage () =
  let p = F.Perceptron.create ~entries:128 ~history:24 () in
  Alcotest.(check int) "bits" (128 * 25 * 8) (F.Perceptron.storage_bits p)

let test_perceptron_invalid () =
  Alcotest.check_raises "entries"
    (Invalid_argument "Perceptron.create: entries") (fun () ->
      ignore (F.Perceptron.create ~entries:100 ()));
  (* The history is read as one packed word of at most 62 outcomes. *)
  List.iter
    (fun history ->
      Alcotest.check_raises
        (Printf.sprintf "history %d" history)
        (Invalid_argument "Perceptron.create: history")
        (fun () -> ignore (F.Perceptron.create ~history ())))
    [ 0; 63; 64 ];
  ignore (F.Perceptron.create ~history:62 ())

(* ------------------------------------------------------------------ *)
(* Two-level *)

let test_two_level_local_pattern () =
  (* A branch with period-3 local pattern is exactly what PAg nails. *)
  let i = ref 0 in
  let err =
    drive
      (F.Two_level.pack (F.Two_level.create ()))
      (fun f ->
        for _ = 1 to 5000 do
          incr i;
          f 0x5000 (!i mod 3 <> 0)
        done)
  in
  Alcotest.(check bool) (Printf.sprintf "err %.3f < 0.02" err) true (err < 0.02)

let test_two_level_storage () =
  let t = F.Two_level.create ~addr_bits:10 ~history:10 () in
  Alcotest.(check int) "bits" ((1024 * 10) + (1024 * 2))
    (F.Two_level.storage_bits t)

(* ------------------------------------------------------------------ *)
(* RAS *)

let test_ras_lifo () =
  let r = F.Ras.create ~depth:4 () in
  F.Ras.push r 1;
  F.Ras.push r 2;
  F.Ras.push r 3;
  Alcotest.(check (option int)) "pop 3" (Some 3) (F.Ras.pop r);
  Alcotest.(check (option int)) "pop 2" (Some 2) (F.Ras.pop r);
  Alcotest.(check (option int)) "pop 1" (Some 1) (F.Ras.pop r);
  Alcotest.(check (option int)) "underflow" None (F.Ras.pop r)

let test_ras_overflow_wraps () =
  let r = F.Ras.create ~depth:2 () in
  F.Ras.push r 1;
  F.Ras.push r 2;
  F.Ras.push r 3;
  (* overwrote 1 *)
  Alcotest.(check int) "one overflow" 1 (F.Ras.overflows r);
  Alcotest.(check (option int)) "top is 3" (Some 3) (F.Ras.pop r);
  Alcotest.(check (option int)) "then 2" (Some 2) (F.Ras.pop r);
  Alcotest.(check (option int)) "1 was lost" None (F.Ras.pop r)

let test_ras_exact_on_trace () =
  (* Against a real trace: with a deep-enough RAS, every return target
     must be predicted exactly (the Btb_sim assumption). *)
  let p = W.Suites.find "CoMD" in
  let ex = W.Executor.create ~insts:150_000 p in
  let r = F.Ras.create ~depth:64 () in
  let wrong = ref 0 and rets = ref 0 in
  W.Executor.run ex (fun i ->
      match i.Inst.kind with
      | Inst.Call | Inst.Indirect_call -> F.Ras.push r (i.Inst.addr + i.Inst.size)
      | Inst.Return ->
          incr rets;
          (match F.Ras.pop r with
          | Some t when t = i.Inst.target -> ()
          | Some _ | None -> incr wrong)
      | Inst.Plain | Inst.Cond_branch | Inst.Uncond_direct
      | Inst.Indirect_branch | Inst.Syscall -> ());
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d return targets wrong" !wrong !rets)
    true
    (* The cold sweep emits chained returns without calls; everything
       else must match. *)
    (float_of_int !wrong /. float_of_int !rets < 0.08)

(* ------------------------------------------------------------------ *)
(* Target cache *)

let test_target_cache_monomorphic () =
  let tc = Target_cache.create () in
  Alcotest.(check (option int)) "cold" None (Target_cache.predict tc ~pc:0x40);
  (* The target history must settle to its fixed point before the
     index becomes stable; a handful of executions suffices. *)
  for _ = 1 to 8 do
    Target_cache.update tc ~pc:0x40 ~target:0x900
  done;
  Alcotest.(check (option int)) "replays steady target" (Some 0x900)
    (Target_cache.predict tc ~pc:0x40)

let test_target_cache_alternating_beats_btb () =
  (* An indirect branch alternating between two targets: a BTB always
     mispredicts after the switch; a target cache learns the pattern
     because the history separates the two contexts. *)
  let tc = Target_cache.create () in
  let btb = F.Btb.create ~entries:64 ~assoc:4 in
  let tc_wrong = ref 0 and btb_wrong = ref 0 in
  let n = 2000 in
  for i = 1 to n do
    let target = if i mod 2 = 0 then 0x1000 else 0x2000 in
    (match Target_cache.predict tc ~pc:0x80 with
    | Some p when p = target -> ()
    | Some _ | None -> incr tc_wrong);
    Target_cache.update tc ~pc:0x80 ~target;
    (match F.Btb.lookup btb ~pc:0x80 with
    | Some p when p = target -> ()
    | Some _ | None -> incr btb_wrong);
    F.Btb.insert btb ~pc:0x80 ~target
  done;
  Alcotest.(check bool)
    (Printf.sprintf "target cache %d wrong << btb %d wrong" !tc_wrong !btb_wrong)
    true
    (!tc_wrong * 4 < !btb_wrong)

let test_target_cache_storage () =
  let tc = Target_cache.create ~entries:512 () in
  Alcotest.(check int) "bits" (512 * 32) (Target_cache.storage_bits tc)

(* ------------------------------------------------------------------ *)
(* I-cache prefetch *)

let test_prefetch_fills_next_line () =
  let c =
    F.Icache.create ~next_line_prefetch:true ~size_bytes:1024 ~line_bytes:64
      ~assoc:2 ()
  in
  Alcotest.(check bool) "miss line 0" false (F.Icache.access c ~addr:0x4000 ~size:4);
  Alcotest.(check int) "one prefetch issued" 1 (F.Icache.prefetches c);
  (* The next line is already resident. *)
  Alcotest.(check bool) "line 1 hits" true (F.Icache.access c ~addr:0x4040 ~size:4);
  Alcotest.(check int) "prefetch was useful" 1 (F.Icache.useful_prefetches c);
  Alcotest.(check int) "only one demand miss" 1 (F.Icache.misses c)

let test_prefetch_disabled_by_default () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  ignore (F.Icache.access c ~addr:0x4000 ~size:4);
  Alcotest.(check int) "no prefetches" 0 (F.Icache.prefetches c);
  Alcotest.(check bool) "line 1 misses" false
    (F.Icache.access c ~addr:0x4040 ~size:4)

let test_prefetch_helps_sequential_workload () =
  let p = W.Suites.find "FT" in
  let run pf =
    let ex = W.Executor.create ~insts:200_000 p in
    let sim =
      Icache_sim.create ~next_line_prefetch:pf ~size_bytes:16384
        ~line_bytes:64 ~assoc:8 ()
    in
    A.Tool.run_all (W.Executor.trace ex) [ Icache_sim.observer sim ];
    Icache_sim.mpki sim A.Branch_mix.Total
  in
  let plain = run false and pf = run true in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch %.2f < plain %.2f" pf plain)
    true (pf < plain)

(* ------------------------------------------------------------------ *)
(* Predictability *)

let test_predictability_repetitive () =
  let t = A.Predictability.create ~hist_bits:8 () in
  let mk taken =
    Inst.make ~kind:Inst.Cond_branch ~taken ~target:0 ~addr:0x100 ~size:4 ()
  in
  for _ = 1 to 1000 do
    A.Predictability.feed t (mk true)
  done;
  Alcotest.(check int) "one site" 1 (A.Predictability.distinct_sites t);
  Alcotest.(check bool) "few pairs" true (A.Predictability.distinct_pairs t <= 9);
  Alcotest.(check bool) "low novelty" true (A.Predictability.novelty_rate t < 0.01)

let test_predictability_desktop_vs_hpc () =
  let novelty name =
    let p = W.Suites.find name in
    let ex = W.Executor.create ~insts:300_000 p in
    let t = A.Predictability.create () in
    A.Tool.run_all (W.Executor.trace ex) [ A.Predictability.observer t ];
    A.Predictability.novelty_rate t
  in
  let hpc = novelty "swim" and int_ = novelty "xalancbmk" in
  Alcotest.(check bool)
    (Printf.sprintf "desktop novelty %.2f > HPC %.2f" int_ hpc)
    true (int_ > 2.0 *. hpc)

(* ------------------------------------------------------------------ *)
(* Working sets *)

let test_working_set_monotone () =
  let p = W.Suites.find "gobmk" in
  let ex = W.Executor.create ~insts:300_000 p in
  let curve =
    A.Working_set.curve (A.Tool.Source.of_trace (W.Executor.trace ex))
  in
  Alcotest.(check int) "seven rungs" 7 (List.length curve);
  let rec non_increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a +. 0.2 >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "roughly monotone" true (non_increasing curve)

let test_working_set_knee () =
  let p = W.Suites.find "swim" in
  let ex = W.Executor.create ~insts:200_000 p in
  match
    A.Working_set.knee
      (A.Working_set.curve (A.Tool.Source.of_trace (W.Executor.trace ex)))
  with
  | Some k ->
      Alcotest.(check bool)
        (Printf.sprintf "swim knee %dKB <= 16KB" (k / 1024))
        true (k <= 16384)
  | None -> Alcotest.fail "no knee found"

(* ------------------------------------------------------------------ *)
(* Reuse distance *)

let mkb ?(kind = Inst.Plain) ?(taken = false) ?(target = 0) addr =
  Inst.make ~kind ~taken ~target ~addr ~size:4 ()

let test_reuse_distance_tight_loop () =
  let rd = A.Reuse_distance.create () in
  (* Two blocks alternating: reuse distance 1 for both after warmup. *)
  for _ = 1 to 100 do
    A.Reuse_distance.feed rd (mkb 0x100);
    A.Reuse_distance.feed rd
      (mkb ~kind:Inst.Cond_branch ~taken:true ~target:0x200 0x104);
    A.Reuse_distance.feed rd (mkb 0x200);
    A.Reuse_distance.feed rd
      (mkb ~kind:Inst.Cond_branch ~taken:true ~target:0x100 0x204)
  done;
  Alcotest.(check int) "200 block executions" 200
    (A.Reuse_distance.executions rd);
  Alcotest.(check bool) "short reuse dominates" true
    (A.Reuse_distance.short_reuse_fraction rd > 0.95);
  Alcotest.(check bool) "median small" true
    (A.Reuse_distance.median_distance rd <= 2.0)

let test_reuse_distance_streaming () =
  let rd = A.Reuse_distance.create () in
  (* 500 distinct blocks, never repeated: everything is cold. *)
  for i = 0 to 499 do
    A.Reuse_distance.feed rd
      (mkb ~kind:Inst.Uncond_direct ~taken:true ~target:0 (0x1000 + (i * 64)))
  done;
  let hist = A.Reuse_distance.histogram rd in
  Alcotest.(check (float 1e-9)) "all cold" 1.0 (List.assoc "cold/far" hist)

let test_reuse_distance_paper_benchmarks () =
  (* CoHMM/botsspar-style short-block codes re-execute blocks within a
     couple of blocks (Section III-C). *)
  List.iter
    (fun name ->
      let p = W.Suites.find name in
      let ex = W.Executor.create ~insts:200_000 p in
      let rd = A.Reuse_distance.create () in
      A.Tool.run_all (W.Executor.trace ex) [ A.Reuse_distance.observer rd ];
      let short = A.Reuse_distance.short_reuse_fraction rd in
      Alcotest.(check bool)
        (Printf.sprintf "%s short-reuse %.2f > 0.4" name short)
        true (short > 0.4))
    [ "CoHMM"; "botsspar"; "CG" ]

(* ------------------------------------------------------------------ *)
(* Fetch pipeline *)

module U = Repro_uarch

let test_pipeline_straight_line () =
  let pipe = U.Fetch_pipeline.create ~fetch_bytes:16 U.Frontend_config.baseline in
  (* 64 plain 4-byte instructions, sequential: 16 bytes/cycle after
     the first line access; no branch or btb bubbles. *)
  for i = 0 to 63 do
    U.Fetch_pipeline.feed pipe (mkb (0x400000 + (i * 4)))
  done;
  Alcotest.(check int) "insts" 64 (U.Fetch_pipeline.instructions pipe);
  let b = U.Fetch_pipeline.breakdown pipe in
  Alcotest.(check (float 1e-9)) "no bp cycles" 0.0 (List.assoc "bp-flush" b);
  Alcotest.(check (float 1e-9)) "no btb cycles" 0.0
    (List.assoc "btb-redirect" b);
  (* 256 bytes at 16 bytes/cycle = 16 fetch cycles, plus cold misses. *)
  Alcotest.(check (float 1e-9)) "fetch cycles" 16.0 (List.assoc "fetch" b);
  Alcotest.(check bool) "cold icache misses charged" true
    (List.assoc "icache-miss" b > 0.0)

let test_pipeline_zero_penalty_branch () =
  let pipe = U.Fetch_pipeline.create U.Frontend_config.baseline in
  (* A tight loop: once the BP and BTB know it, iterations add no
     bubbles (the paper's zero-branch-penalty case). *)
  let iter () =
    U.Fetch_pipeline.feed pipe (mkb 0x400000);
    U.Fetch_pipeline.feed pipe
      (mkb ~kind:Inst.Cond_branch ~taken:true ~target:0x400000 0x400004)
  in
  for _ = 1 to 50 do iter () done;
  let before = U.Fetch_pipeline.cycles pipe in
  for _ = 1 to 50 do iter () done;
  let after = U.Fetch_pipeline.cycles pipe in
  (* Steady state: one cycle per iteration (8 bytes in one slot),
     nothing else. *)
  Alcotest.(check (float 5.0)) "steady iterations ~1 cycle" 50.0
    (after -. before)

let test_pipeline_tailored_close_on_hpc () =
  let p = W.Suites.find "FT" in
  let ex = W.Executor.create ~insts:300_000 p in
  let base = U.Fetch_pipeline.create U.Frontend_config.baseline in
  let tail = U.Fetch_pipeline.create U.Frontend_config.tailored in
  A.Tool.run_all (W.Executor.trace ex)
    [ U.Fetch_pipeline.observer base; U.Fetch_pipeline.observer tail ];
  let cb = U.Fetch_pipeline.frontend_cpi base in
  let ct = U.Fetch_pipeline.frontend_cpi tail in
  Alcotest.(check bool)
    (Printf.sprintf "tailored %.3f within 5%% of baseline %.3f" ct cb)
    true
    (ct < cb *. 1.05)

let test_pipeline_agrees_with_timing_on_ordering () =
  (* Both models must agree that the tailored front-end hurts desktop
     code more than HPC code. *)
  let delta name =
    let p = W.Suites.find name in
    let ex = W.Executor.create ~insts:300_000 p in
    let base = U.Fetch_pipeline.create U.Frontend_config.baseline in
    let tail = U.Fetch_pipeline.create U.Frontend_config.tailored in
    A.Tool.run_all (W.Executor.trace ex)
      [ U.Fetch_pipeline.observer base; U.Fetch_pipeline.observer tail ];
    U.Fetch_pipeline.frontend_cpi tail /. U.Fetch_pipeline.frontend_cpi base
  in
  let hpc = delta "swim" and desktop = delta "gobmk" in
  Alcotest.(check bool)
    (Printf.sprintf "pipeline: desktop ratio %.3f > HPC ratio %.3f" desktop hpc)
    true
    (desktop > hpc)

(* ------------------------------------------------------------------ *)
(* CSV export *)

let test_table_csv () =
  let t = Repro_util.Table.create [ ("a", Repro_util.Table.Left);
                                    ("b", Repro_util.Table.Right) ] in
  Repro_util.Table.add_row t [ "x,y"; "1" ];
  Repro_util.Table.add_separator t;
  Repro_util.Table.add_row t [ "he said \"hi\""; "2" ];
  let csv = Repro_util.Table.to_csv t in
  Alcotest.(check string) "csv"
    "a,b\n\"x,y\",1\n\"he said \"\"hi\"\"\",2\n" csv

let test_export_experiment () =
  let files = C.Export.experiment_to_csv ~scale:0.01 C.Experiment.Tab3 in
  Alcotest.(check int) "two tables" 2 (List.length files);
  List.iter
    (fun (name, csv) ->
      Alcotest.(check bool) "named" true
        (String.length name > 6 && Filename.check_suffix name ".csv");
      Alcotest.(check bool) "has rows" true
        (List.length (String.split_on_char '\n' csv) > 3))
    files

let test_export_writes_files () =
  let dir = Filename.temp_file "repro" "" in
  Sys.remove dir;
  let paths = C.Export.write_experiment ~scale:0.01 ~dir C.Experiment.Tab2 in
  Alcotest.(check bool) "wrote files" true (paths <> []);
  List.iter
    (fun p -> Alcotest.(check bool) "file exists" true (Sys.file_exists p))
    paths

(* ------------------------------------------------------------------ *)
(* Extension studies *)

let test_btfn_tracks_bias () =
  (* On a loop-heavy HPC benchmark, BTFN must beat always-not-taken
     decisively (the paper's backward-taken finding). *)
  let p = W.Suites.find "swim" in
  let ex = W.Executor.create ~insts:200_000 p in
  let btfn = Bp_sim.create_static A.Bp_sweep.Btfn in
  let ant = Bp_sim.create_static A.Bp_sweep.Always_not_taken in
  A.Tool.run_all (W.Executor.trace ex)
    [ Bp_sim.observer btfn; Bp_sim.observer ant ];
  let b = Bp_sim.mpki btfn A.Branch_mix.Total in
  let n = Bp_sim.mpki ant A.Branch_mix.Total in
  Alcotest.(check bool) (Printf.sprintf "btfn %.1f << not-taken %.1f" b n) true
    (b < n /. 3.0);
  Alcotest.(check string) "name" "static-btfn" (Bp_sim.predictor_name btfn)

let test_extension_tables_render () =
  let t1 =
    C.Extension_study.predictor_table ~insts:60_000 ~benchmarks:[ "FT" ] ()
  in
  let t2 =
    C.Extension_study.prefetch_table ~insts:60_000 ~benchmarks:[ "FT" ] ()
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "renders" true
        (String.length (Repro_util.Table.render t) > 100))
    [ t1; t2 ]

let test_zoo_extended () =
  Alcotest.(check int) "13 names" 13 (List.length F.Zoo.extended_names);
  List.iter
    (fun n -> ignore (F.Zoo.by_name_extended n))
    F.Zoo.extended_names

let () =
  Alcotest.run "extensions"
    [ ("perceptron",
       [ Alcotest.test_case "biased" `Quick test_perceptron_biased;
         Alcotest.test_case "alternating" `Quick test_perceptron_alternating;
         Alcotest.test_case "correlated" `Quick test_perceptron_correlated;
         Alcotest.test_case "storage" `Quick test_perceptron_storage;
         Alcotest.test_case "invalid" `Quick test_perceptron_invalid ]);
      ("two-level",
       [ Alcotest.test_case "local pattern" `Quick test_two_level_local_pattern;
         Alcotest.test_case "storage" `Quick test_two_level_storage ]);
      ("ras",
       [ Alcotest.test_case "lifo" `Quick test_ras_lifo;
         Alcotest.test_case "overflow" `Quick test_ras_overflow_wraps;
         Alcotest.test_case "exact on trace" `Quick test_ras_exact_on_trace ]);
      ("target cache",
       [ Alcotest.test_case "monomorphic" `Quick test_target_cache_monomorphic;
         Alcotest.test_case "alternating beats BTB" `Quick
           test_target_cache_alternating_beats_btb;
         Alcotest.test_case "storage" `Quick test_target_cache_storage ]);
      ("prefetch",
       [ Alcotest.test_case "fills next line" `Quick test_prefetch_fills_next_line;
         Alcotest.test_case "off by default" `Quick test_prefetch_disabled_by_default;
         Alcotest.test_case "helps sequential" `Quick
           test_prefetch_helps_sequential_workload ]);
      ("predictability",
       [ Alcotest.test_case "repetitive" `Quick test_predictability_repetitive;
         Alcotest.test_case "desktop vs hpc" `Slow
           test_predictability_desktop_vs_hpc ]);
      ("working set",
       [ Alcotest.test_case "monotone" `Quick test_working_set_monotone;
         Alcotest.test_case "knee" `Quick test_working_set_knee ]);
      ("reuse distance",
       [ Alcotest.test_case "tight loop" `Quick test_reuse_distance_tight_loop;
         Alcotest.test_case "streaming" `Quick test_reuse_distance_streaming;
         Alcotest.test_case "paper benchmarks" `Slow
           test_reuse_distance_paper_benchmarks ]);
      ("fetch pipeline",
       [ Alcotest.test_case "straight line" `Quick test_pipeline_straight_line;
         Alcotest.test_case "zero-penalty branch" `Quick
           test_pipeline_zero_penalty_branch;
         Alcotest.test_case "tailored close on HPC" `Slow
           test_pipeline_tailored_close_on_hpc;
         Alcotest.test_case "agrees with Timing" `Slow
           test_pipeline_agrees_with_timing_on_ordering ]);
      ("export",
       [ Alcotest.test_case "csv" `Quick test_table_csv;
         Alcotest.test_case "experiment csv" `Quick test_export_experiment;
         Alcotest.test_case "writes files" `Quick test_export_writes_files ]);
      ("studies",
       [ Alcotest.test_case "btfn tracks bias" `Quick test_btfn_tracks_bias;
         Alcotest.test_case "tables render" `Quick test_extension_tables_render;
         Alcotest.test_case "zoo extended" `Quick test_zoo_extended ]) ]
