(* Integration tests: the paper's qualitative claims must hold
   end-to-end on the synthetic suites at reduced scale. Each test
   names the Characteristic / Implication it checks. *)

module A = Repro_analysis
module W = Repro_workload
module F = Repro_frontend
module U = Repro_uarch

let total = A.Branch_mix.Total
let serial = A.Branch_mix.Only Repro_isa.Section.Serial
let parallel = A.Branch_mix.Only Repro_isa.Section.Parallel

(* Representative benchmarks per suite keep runtimes bounded. *)
let hpc_sample = [ "CoMD"; "LULESH"; "botsspar"; "swim"; "FT"; "BT"; "MG" ]
let int_sample = [ "gobmk"; "xalancbmk"; "h264ref"; "astar" ]

let characterize name =
  let p = W.Suites.find name in
  A.Characterization.of_profile ~insts:400_000 p

let hpc_chars = lazy (List.map characterize hpc_sample)
let int_chars = lazy (List.map characterize int_sample)

let mean chars f = A.Characterization.suite_mean (Lazy.force chars) f

(* ------------------------------------------------------------------ *)

let test_characteristic1_branch_ratio () =
  (* HPC has ~3x fewer branches than desktop. *)
  let hpc = mean hpc_chars (fun c -> A.Branch_mix.branch_fraction c.mix total) in
  let int_ = mean int_chars (fun c -> A.Branch_mix.branch_fraction c.mix total) in
  Alcotest.(check bool)
    (Printf.sprintf "INT %.3f >= 1.8x HPC %.3f" int_ hpc)
    true
    (int_ > 1.8 *. hpc)

let test_characteristic1_serial_vs_parallel () =
  (* Serial sections are ~3x branchier than parallel ones. *)
  let ser = mean hpc_chars (fun c -> A.Branch_mix.branch_fraction c.mix serial) in
  let par =
    mean hpc_chars (fun c -> A.Branch_mix.branch_fraction c.mix parallel)
  in
  Alcotest.(check bool)
    (Printf.sprintf "serial %.3f > 1.5x parallel %.3f" ser par)
    true
    (ser > 1.5 *. par)

let test_characteristic2_bias () =
  let hpc = mean hpc_chars (fun c -> A.Branch_bias.biased_fraction c.bias total) in
  let int_ = mean int_chars (fun c -> A.Branch_bias.biased_fraction c.bias total) in
  Alcotest.(check bool)
    (Printf.sprintf "HPC biased %.2f > INT %.2f + 0.1" hpc int_)
    true
    (hpc > int_ +. 0.1);
  Alcotest.(check bool) "HPC mostly biased" true (hpc > 0.75)

let test_characteristic2_backward () =
  let hpc =
    mean hpc_chars (fun c ->
        A.Branch_bias.backward_taken_fraction c.bias parallel)
  in
  let int_ =
    mean int_chars (fun c -> A.Branch_bias.backward_taken_fraction c.bias total)
  in
  Alcotest.(check bool)
    (Printf.sprintf "HPC backward %.2f > 0.65; INT %.2f < 0.55" hpc int_)
    true
    (hpc > 0.65 && int_ < 0.55)

let test_characteristic3_footprint () =
  let hpc_dyn =
    mean hpc_chars (fun c ->
        float_of_int (A.Footprint.hot_bytes c.footprint parallel))
  in
  let int_dyn =
    mean int_chars (fun c ->
        float_of_int (A.Footprint.hot_bytes c.footprint total))
  in
  Alcotest.(check bool)
    (Printf.sprintf "HPC 99%% dyn %.0fKB < 32KB" (hpc_dyn /. 1024.0))
    true
    (hpc_dyn < 32.0 *. 1024.0);
  Alcotest.(check bool)
    (Printf.sprintf "INT dyn %.0fKB > HPC dyn %.0fKB" (int_dyn /. 1024.0)
       (hpc_dyn /. 1024.0))
    true
    (int_dyn > 1.5 *. hpc_dyn)

let test_characteristic4_blocks () =
  let hpc_bbl =
    mean hpc_chars (fun c -> A.Bblock_stats.avg_block_bytes c.bblocks parallel)
  in
  let int_bbl =
    mean int_chars (fun c -> A.Bblock_stats.avg_block_bytes c.bblocks total)
  in
  let hpc_dist =
    mean hpc_chars (fun c -> A.Bblock_stats.avg_taken_distance c.bblocks parallel)
  in
  let int_dist =
    mean int_chars (fun c -> A.Bblock_stats.avg_taken_distance c.bblocks total)
  in
  Alcotest.(check bool)
    (Printf.sprintf "HPC BBL %.0fB >= 2.5x INT %.0fB" hpc_bbl int_bbl)
    true
    (hpc_bbl > 2.5 *. int_bbl);
  Alcotest.(check bool)
    (Printf.sprintf "HPC taken-dist %.0fB >= 3x INT %.0fB" hpc_dist int_dist)
    true
    (hpc_dist > 3.0 *. int_dist)

(* ------------------------------------------------------------------ *)

let mpki_of name predictor_name insts =
  let p = W.Suites.find name in
  let ex = W.Executor.create ~insts p in
  let sim = Bp_sim.create (F.Zoo.by_name predictor_name) in
  A.Tool.run_all (W.Executor.trace ex) [ Bp_sim.observer sim ];
  Bp_sim.mpki sim total

let test_implication1_tage_wins () =
  (* TAGE outperforms gshare at equal cost, per suite and per bench. *)
  List.iter
    (fun name ->
      let g = mpki_of name "gshare-big" 400_000 in
      let t = mpki_of name "tage-big" 400_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tage %.2f <= gshare %.2f * 1.1" name t g)
        true
        (t <= g *. 1.1 +. 0.2))
    [ "CoMD"; "gobmk"; "FT"; "xalancbmk" ]

let test_implication1_tage_size_insensitive_hpc () =
  List.iter
    (fun name ->
      let big = mpki_of name "tage-big" 400_000 in
      let small = mpki_of name "tage-small" 400_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tage-small %.2f within 35%% of tage-big %.2f" name
           small big)
        true
        (small < big *. 1.35 +. 0.3))
    [ "CoMD"; "FT"; "swim"; "botsspar" ]

let test_implication1_lbp_helps_loopy_code () =
  (* imagick and botsspar have constant short trip counts; the paper
     singles them out as the LBP's best cases. *)
  List.iter
    (fun name ->
      let plain = mpki_of name "gshare-small" 500_000 in
      let lbp = mpki_of name "L-gshare-small" 500_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: L-gshare %.2f < gshare %.2f" name lbp plain)
        true
        (lbp < plain))
    [ "imagick"; "botsspar" ]

let test_implication1_lbp_useless_for_desktop () =
  let plain = mpki_of "gobmk" "gshare-small" 400_000 in
  let lbp = mpki_of "gobmk" "L-gshare-small" 400_000 in
  Alcotest.(check bool)
    (Printf.sprintf "gobmk: LBP changes little (%.2f vs %.2f)" lbp plain)
    true
    (Float.abs (lbp -. plain) /. plain < 0.1)

let test_desktop_mpki_much_higher () =
  let hpc =
    Repro_util.Stats.mean
      (List.map (fun n -> mpki_of n "gshare-big" 300_000) [ "FT"; "swim"; "BT" ])
  in
  let int_ =
    Repro_util.Stats.mean
      (List.map (fun n -> mpki_of n "gshare-big" 300_000) [ "gobmk"; "astar" ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "INT MPKI %.1f >= 3x NPB-ish %.1f" int_ hpc)
    true
    (int_ > 3.0 *. hpc)

(* ------------------------------------------------------------------ *)

let btb_mpki name ~entries ~assoc insts =
  let p = W.Suites.find name in
  let ex = W.Executor.create ~insts p in
  let sim = Btb_sim.create ~entries ~assoc in
  A.Tool.run_all (W.Executor.trace ex) [ Btb_sim.observer sim ];
  Btb_sim.mpki sim total

let test_implication2_btb_size_insensitive_hpc () =
  List.iter
    (fun name ->
      let small = btb_mpki name ~entries:256 ~assoc:8 300_000 in
      let big = btb_mpki name ~entries:1024 ~assoc:8 300_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 256e %.2f close to 1K %.2f" name small big)
        true
        (small -. big < 1.2))
    (* ExMatEx apps are excluded: the paper itself singles them out as
       the BTB-aliasing-sensitive suite needing associativity. *)
    [ "FT"; "swim"; "MG"; "bwaves" ]

let test_implication2_btb_size_matters_desktop () =
  let small = btb_mpki "gobmk" ~entries:256 ~assoc:8 400_000 in
  let big = btb_mpki "gobmk" ~entries:1024 ~assoc:8 400_000 in
  Alcotest.(check bool)
    (Printf.sprintf "gobmk: 256e %.2f much worse than 1K %.2f" small big)
    true
    (small > big +. 1.0)

(* ------------------------------------------------------------------ *)

let icache_mpki name ~size ~line ~assoc insts =
  let p = W.Suites.find name in
  let ex = W.Executor.create ~insts p in
  let sim = Icache_sim.create ~size_bytes:size ~line_bytes:line ~assoc () in
  A.Tool.run_all (W.Executor.trace ex) [ Icache_sim.observer sim ];
  (Icache_sim.mpki sim total, Icache_sim.usefulness sim)

let test_implication3_hpc_16k_enough () =
  List.iter
    (fun name ->
      let m16, _ = icache_mpki name ~size:16384 ~line:128 ~assoc:8 400_000 in
      let m32, _ = icache_mpki name ~size:32768 ~line:64 ~assoc:4 400_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tailored i$ %.2f close to baseline %.2f" name m16
           m32)
        true
        (m16 < m32 +. 1.0))
    [ "FT"; "swim"; "CoMD"; "botsspar" ]

let test_implication3_desktop_needs_32k () =
  List.iter
    (fun name ->
      let m16, _ = icache_mpki name ~size:16384 ~line:64 ~assoc:8 500_000 in
      let m32, _ = icache_mpki name ~size:32768 ~line:64 ~assoc:8 500_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 16KB %.2f much worse than 32KB %.2f" name m16 m32)
        true
        (m16 > m32 *. 1.5))
    [ "gobmk"; "xalancbmk" ]

let test_implication3_wide_lines_help_hpc_more () =
  (* Paper: 128B lines cut HPC misses 16% but *raise* SPEC INT misses
     19%. Our fetch model reproduces the gap direction but not the
     sign flip (see EXPERIMENTS.md): wide lines must help HPC
     decisively more than desktop code. *)
  let hpc32, _ = icache_mpki "CoMD" ~size:16384 ~line:32 ~assoc:8 400_000 in
  let hpc128, _ = icache_mpki "CoMD" ~size:16384 ~line:128 ~assoc:8 400_000 in
  Alcotest.(check bool)
    (Printf.sprintf "CoMD: 128B %.2f well below 32B %.2f" hpc128 hpc32)
    true
    (hpc128 < hpc32 /. 2.0);
  let int32, _ = icache_mpki "gobmk" ~size:16384 ~line:32 ~assoc:8 500_000 in
  let int128, _ = icache_mpki "gobmk" ~size:16384 ~line:128 ~assoc:8 500_000 in
  let hpc_gain = hpc32 /. hpc128 and int_gain = int32 /. int128 in
  Alcotest.(check bool)
    (Printf.sprintf "HPC gain %.2fx > INT gain %.2fx * 1.2" hpc_gain int_gain)
    true
    (hpc_gain > int_gain *. 1.2)

let test_line_usefulness_gap () =
  let _, hpc_useful = icache_mpki "swim" ~size:16384 ~line:128 ~assoc:8 300_000 in
  let _, int_useful = icache_mpki "gobmk" ~size:16384 ~line:128 ~assoc:8 500_000 in
  Alcotest.(check bool)
    (Printf.sprintf "HPC usefulness %.2f > INT %.2f" hpc_useful int_useful)
    true
    (hpc_useful > int_useful +. 0.05)

(* ------------------------------------------------------------------ *)

let test_implication4_asymmetric_cmp () =
  (* CoEVP: the Tailored CMP hurts (serial sections), the Asymmetric
     CMP recovers baseline performance, Asymmetric++ wins. *)
  let p = W.Suites.find "CoEVP" in
  let evals = U.Cmp.evaluate_many ~insts:600_000 U.Cmp.standard_configs p in
  let base = List.nth evals 0 in
  let rel i = (U.Cmp.relative (List.nth evals i) ~baseline:base).U.Cmp.time in
  let tailored = rel 1 and asym = rel 2 and plus = rel 3 in
  Alcotest.(check bool)
    (Printf.sprintf "tailored %.3f > asym %.3f" tailored asym)
    true
    (tailored > asym +. 0.01);
  Alcotest.(check (float 0.02)) "asym recovers baseline" 1.0 asym;
  Alcotest.(check bool) (Printf.sprintf "asym++ %.3f wins" plus) true
    (plus < 0.97)

let test_headline_cmp_numbers () =
  (* Suite-wide: Asymmetric++ ~10% faster, a few % more power, net
     energy saving on parallel HPC workloads. *)
  let benches = [ "FT"; "swim"; "CoMD"; "MG" ] in
  let rels =
    List.map
      (fun name ->
        let p = W.Suites.find name in
        let evals = U.Cmp.evaluate_many ~insts:300_000 U.Cmp.standard_configs p in
        let base = List.nth evals 0 in
        U.Cmp.relative (List.nth evals 3) ~baseline:base)
      benches
  in
  let mean f = Repro_util.Stats.mean (List.map f rels) in
  let time = mean (fun (r : U.Cmp.eval) -> r.time) in
  let power = mean (fun r -> r.power) in
  let ed = mean (fun r -> r.ed) in
  Alcotest.(check bool) (Printf.sprintf "time %.3f in [0.82, 0.95]" time) true
    (time > 0.82 && time < 0.95);
  Alcotest.(check bool) (Printf.sprintf "power %.3f in [1.0, 1.10]" power) true
    (power > 1.0 && power < 1.10);
  Alcotest.(check bool) (Printf.sprintf "ED %.3f < 0.92" ed) true (ed < 0.92)

let () =
  Alcotest.run "integration"
    [ ("characteristics (Section III)",
       [ Alcotest.test_case "1: branch ratio" `Slow test_characteristic1_branch_ratio;
         Alcotest.test_case "1: serial vs parallel" `Slow
           test_characteristic1_serial_vs_parallel;
         Alcotest.test_case "2: bias" `Slow test_characteristic2_bias;
         Alcotest.test_case "2: backward" `Slow test_characteristic2_backward;
         Alcotest.test_case "3: footprint" `Slow test_characteristic3_footprint;
         Alcotest.test_case "4: blocks" `Slow test_characteristic4_blocks ]);
      ("branch predictors (Section IV-A)",
       [ Alcotest.test_case "tage wins" `Slow test_implication1_tage_wins;
         Alcotest.test_case "tage size-insensitive on HPC" `Slow
           test_implication1_tage_size_insensitive_hpc;
         Alcotest.test_case "LBP helps loopy code" `Slow
           test_implication1_lbp_helps_loopy_code;
         Alcotest.test_case "LBP useless for desktop" `Slow
           test_implication1_lbp_useless_for_desktop;
         Alcotest.test_case "desktop MPKI higher" `Slow
           test_desktop_mpki_much_higher ]);
      ("BTB (Section IV-B)",
       [ Alcotest.test_case "HPC size-insensitive" `Slow
           test_implication2_btb_size_insensitive_hpc;
         Alcotest.test_case "desktop size-sensitive" `Slow
           test_implication2_btb_size_matters_desktop ]);
      ("I-cache (Section IV-C)",
       [ Alcotest.test_case "16KB enough for HPC" `Slow
           test_implication3_hpc_16k_enough;
         Alcotest.test_case "desktop needs 32KB" `Slow
           test_implication3_desktop_needs_32k;
         Alcotest.test_case "wide lines help HPC more" `Slow
           test_implication3_wide_lines_help_hpc_more;
         Alcotest.test_case "line usefulness gap" `Slow test_line_usefulness_gap ]);
      ("CMP (Section V)",
       [ Alcotest.test_case "asymmetric design" `Slow test_implication4_asymmetric_cmp;
         Alcotest.test_case "headline numbers" `Slow test_headline_cmp_numbers ]) ]
