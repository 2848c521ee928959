(* Tests for the McPAT/Sniper substitute: CACTI fits, Table III
   budgets, the CPI model and CMP evaluation. *)

module U = Repro_uarch
module W = Repro_workload
module A = Repro_analysis
module F = Repro_frontend
module I = Repro_isa.Inst
module S = Repro_isa.Section

let checkf eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)

let test_cacti_fit_anchors () =
  let fit = U.Cacti.powerlaw_fit (100.0, 10.0) (400.0, 20.0) in
  checkf 1e-6 "anchor 1" 10.0 (U.Cacti.eval fit 100.0);
  checkf 1e-6 "anchor 2" 20.0 (U.Cacti.eval fit 400.0);
  checkf 1e-6 "exponent" 0.5 (U.Cacti.exponent fit)

let test_cacti_fit_monotone () =
  let fit = U.Cacti.powerlaw_fit (100.0, 10.0) (400.0, 20.0) in
  Alcotest.(check bool) "monotone" true
    (U.Cacti.eval fit 200.0 > 10.0 && U.Cacti.eval fit 200.0 < 20.0)

let test_cacti_fit_invalid () =
  Alcotest.check_raises "equal x"
    (Invalid_argument "Cacti.powerlaw_fit: equal abscissae") (fun () ->
      ignore (U.Cacti.powerlaw_fit (1.0, 1.0) (1.0, 2.0)))

let test_cacti_generic_sram () =
  Alcotest.(check bool) "area grows with bits" true
    (U.Cacti.sram_area_mm2 ~bits:100_000 > U.Cacti.sram_area_mm2 ~bits:10_000);
  Alcotest.(check bool) "leakage positive" true
    (U.Cacti.sram_leakage_w ~bits:1000 > 0.0)

(* ------------------------------------------------------------------ *)

let test_mcpat_table3_baseline () =
  let b = U.Mcpat.budget U.Frontend_config.baseline in
  checkf 1e-3 "icache area" 0.31 b.icache_mm2;
  checkf 1e-3 "bp area" 0.14 b.bp_mm2;
  checkf 1e-3 "btb area" 0.125 b.btb_mm2;
  checkf 1e-3 "icache power" 0.075 b.icache_w;
  checkf 1e-3 "core area" 2.49
    (U.Mcpat.core_area_mm2 U.Frontend_config.baseline);
  checkf 1e-3 "core power" 0.85 (U.Mcpat.core_power_w U.Frontend_config.baseline)

let test_mcpat_table3_tailored () =
  let t = U.Mcpat.budget U.Frontend_config.tailored in
  checkf 1e-3 "icache area" 0.14 t.icache_mm2;
  checkf 1e-3 "bp area" 0.04 t.bp_mm2;
  checkf 1e-3 "btb area" 0.022 t.btb_mm2;
  checkf 0.02 "core area ~2.11" 2.11
    (U.Mcpat.core_area_mm2 U.Frontend_config.tailored);
  checkf 0.01 "core power ~0.79" 0.79
    (U.Mcpat.core_power_w U.Frontend_config.tailored)

let test_mcpat_headline_savings () =
  checkf 0.02 "area saving ~16%" 0.16
    (U.Mcpat.area_saving_vs_baseline U.Frontend_config.tailored);
  checkf 0.01 "power saving ~7%" 0.07
    (U.Mcpat.power_saving_vs_baseline U.Frontend_config.tailored)

let test_mcpat_monotone_in_icache () =
  let small = { U.Frontend_config.baseline with icache_bytes = 8192 } in
  Alcotest.(check bool) "smaller icache, smaller core" true
    (U.Mcpat.core_area_mm2 small
    < U.Mcpat.core_area_mm2 U.Frontend_config.baseline)

(* ------------------------------------------------------------------ *)

let test_frontend_config_bp () =
  let bp = U.Frontend_config.make_bp U.Frontend_config.tailored in
  Alcotest.(check bool) "tailored bp has loop predictor" true
    (String.length bp.Repro_frontend.Predictor.name > 2
    && String.sub bp.Repro_frontend.Predictor.name 0 2 = "L-");
  let fresh1 = U.Frontend_config.make_bp U.Frontend_config.baseline in
  ignore (fresh1.Repro_frontend.Predictor.step 0x40 true);
  let fresh2 = U.Frontend_config.make_bp U.Frontend_config.baseline in
  Alcotest.(check bool) "instances are fresh" true
    (fresh1 != fresh2)

let test_timing_cpi_formula () =
  let rates = { U.Timing.bp_mpki = 10.0; btb_mpki = 5.0; icache_mpki = 2.0 } in
  let expected =
    U.Timing.base_cpi +. 0.3
    +. (10.0 /. 1000.0 *. U.Timing.bp_penalty)
    +. (5.0 /. 1000.0 *. U.Timing.btb_penalty)
    +. (2.0 /. 1000.0 *. U.Timing.icache_penalty)
  in
  checkf 1e-9 "cpi formula" expected (U.Timing.cpi ~data_stall:0.3 rates)

let test_timing_measure_sections () =
  let p = W.Suites.find "CoMD" in
  let ex = W.Executor.create ~insts:150_000 p in
  let m =
    match
      U.Timing.measure_many [ U.Frontend_config.baseline ]
        (A.Tool.Source.of_trace (W.Executor.trace ex))
    with
    | [ m ] -> m
    | _ -> Alcotest.fail "expected one measurement"
  in
  Alcotest.(check bool) "serial insts measured" true (m.serial_insts > 0);
  Alcotest.(check bool) "parallel insts measured" true (m.parallel_insts > 0);
  Alcotest.(check bool) "rates finite" true
    (Float.is_finite m.total.bp_mpki && Float.is_finite m.total.icache_mpki)

let test_timing_measure_many_consistent () =
  let p = W.Suites.find "FT" in
  let ex = W.Executor.create ~insts:100_000 p in
  let trace = W.Executor.trace ex in
  match
    U.Timing.measure_many
      [ U.Frontend_config.baseline; U.Frontend_config.baseline ]
      (A.Tool.Source.of_trace trace)
  with
  | [ a; b ] ->
      checkf 1e-9 "identical configs identical rates" a.total.bp_mpki
        b.total.bp_mpki
  | _ -> Alcotest.fail "expected two measurements"

(* ------------------------------------------------------------------ *)
(* Oracle: the fused Timing.measure_many against one independent
   per-config Bp_sim/Btb_sim/Icache_sim observer set per core, driven
   together over a single pass of the stream. *)

let reference_measure_many cfgs trace =
  let zero_if_nan x = if Float.is_nan x then 0.0 else x in
  let sims =
    List.map
      (fun (cfg : U.Frontend_config.t) ->
        let bp = Bp_sim.create (U.Frontend_config.make_bp cfg) in
        let btb =
          Btb_sim.create ~entries:cfg.btb_entries ~assoc:cfg.btb_assoc
        in
        let ic =
          Icache_sim.create ~policy:cfg.icache_repl
            ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.icache_line
            ~assoc:cfg.icache_assoc ()
        in
        (bp, btb, ic))
      cfgs
  in
  A.Tool.run_all trace
    (List.concat_map
       (fun (bp, btb, ic) ->
         [ Bp_sim.observer bp; Btb_sim.observer btb;
           Icache_sim.observer ic ])
       sims);
  List.map
    (fun (bp, btb, ic) ->
      let rates scope =
        { U.Timing.bp_mpki = zero_if_nan (Bp_sim.mpki bp scope);
          btb_mpki = zero_if_nan (Btb_sim.mpki btb scope);
          icache_mpki = zero_if_nan (Icache_sim.mpki ic scope) }
      in
      let serial = A.Branch_mix.Only S.Serial in
      let parallel = A.Branch_mix.Only S.Parallel in
      { U.Timing.serial = rates serial;
        parallel = rates parallel;
        total = rates A.Branch_mix.Total;
        serial_insts = Bp_sim.insts bp serial;
        parallel_insts = Bp_sim.insts bp parallel })
    sims

let rates_equal (a : U.Timing.rates) (b : U.Timing.rates) =
  Float.equal a.bp_mpki b.bp_mpki
  && Float.equal a.btb_mpki b.btb_mpki
  && Float.equal a.icache_mpki b.icache_mpki

let measurement_equal (a : U.Timing.measurement) (b : U.Timing.measurement) =
  rates_equal a.serial b.serial
  && rates_equal a.parallel b.parallel
  && rates_equal a.total b.total
  && a.serial_insts = b.serial_insts
  && a.parallel_insts = b.parallel_insts

let config_gen =
  QCheck.Gen.(
    let* bp =
      oneof
        [ map (fun history_bits -> U.Frontend_config.Gshare { history_bits })
            (int_range 2 14);
          map2
            (fun addr_bits history_bits ->
              U.Frontend_config.Tournament { addr_bits; history_bits })
            (int_range 4 12) (int_range 2 14);
          oneofl U.Frontend_config.[ Tage_small; Tage_big ] ]
    in
    let* bp_loop = bool in
    let* btb_entries, btb_assoc =
      oneofl [ (16, 1); (64, 2); (64, 4); (256, 8); (512, 4); (2048, 4) ]
    in
    let* icache_bytes, icache_line, icache_assoc =
      oneofl
        [ (1024, 32, 2); (2048, 64, 1); (4096, 64, 4); (4096, 128, 8);
          (16384, 128, 8); (32768, 64, 4) ]
    in
    let* icache_repl = oneofl F.Replacement.[ Lru; Preuse ] in
    return
      { U.Frontend_config.icache_bytes; icache_line; icache_assoc;
        icache_repl; bp; bp_loop; btb_entries; btb_assoc })

(* Random cores plus cores that recombine their structures (an
   I-cache geometry under a freshly drawn policy), so lists share
   predictors, BTBs and I-caches across different configs and
   sometimes repeat a whole config. *)
let config_list_gen =
  QCheck.Gen.(
    let* base = list_size (int_range 1 3) config_gen in
    let pick = oneofl base in
    let* mixed =
      list_size (int_range 0 4)
        (let* a = pick in
         let* b = pick in
         let* c = pick in
         let* icache_repl = oneofl F.Replacement.[ Lru; Preuse ] in
         return
           { a with
             U.Frontend_config.btb_entries = b.U.Frontend_config.btb_entries;
             btb_assoc = b.btb_assoc;
             icache_bytes = c.icache_bytes;
             icache_line = c.icache_line;
             icache_assoc = c.icache_assoc;
             icache_repl })
    in
    shuffle_l (base @ mixed))

let kinds =
  [| I.Plain; I.Cond_branch; I.Uncond_direct; I.Indirect_branch; I.Call;
     I.Indirect_call; I.Return; I.Syscall |]

(* Random instructions over a small code window, so tables and lines
   are reused. *)
let inst_gen =
  QCheck.Gen.(
    let* kind = oneofa kinds in
    let* addr = int_bound 0x3FFF in
    let* size = int_range 1 15 in
    let* taken = if kind = I.Plain then return false else bool in
    let* target = if taken then int_bound 0x3FFF else return 0 in
    let* parallel = bool in
    let* warmup = frequencyl [ (3, false); (1, true) ] in
    return
      (I.make ~kind ~taken ~target
         ~section:(if parallel then S.Parallel else S.Serial)
         ~warmup ~addr ~size ()))

(* A stream is either random instructions or a short slice of a real
   benchmark (loops, warmup prefix, both sections). *)
type stream = Random of I.t list | Bench of string * int

let stream_gen =
  QCheck.Gen.(
    oneof
      [ map (fun l -> Random l) (list_size (int_range 0 800) inst_gen);
        map2
          (fun (p : W.Profile.t) insts -> Bench (p.name, insts))
          (oneofl W.Suites.all) (int_range 5_000 40_000) ])

let trace_of = function
  | Random l -> Repro_isa.Trace.of_list l
  | Bench (name, insts) ->
      W.Executor.trace (W.Executor.create ~insts (W.Suites.find name))

let prop_measure_many_oracle =
  QCheck.Test.make ~name:"fused measure_many == per-config sims (oracle)"
    ~count:40
    (QCheck.make
       QCheck.Gen.(pair stream_gen config_list_gen)
       ~print:(fun (stream, cfgs) ->
         Printf.sprintf "%s over [%s]"
           (match stream with
           | Random l -> Printf.sprintf "<%d random insts>" (List.length l)
           | Bench (n, k) -> Printf.sprintf "<%s, %d insts>" n k)
           (String.concat "; " (List.map U.Frontend_config.name cfgs))))
    (fun (stream, cfgs) ->
      let trace = trace_of stream in
      let expected = reference_measure_many cfgs trace in
      let agrees src =
        List.for_all2 measurement_equal expected
          (U.Timing.measure_many cfgs src)
      in
      agrees (A.Tool.Source.of_trace trace)
      && agrees
           (A.Tool.Source.of_packed (Repro_isa.Packed_trace.of_trace trace)))

let test_cmp_stream_wrapper_matches_source () =
  let p = W.Suites.find "CoMD" in
  let insts = 120_000 in
  let src =
    A.Tool.Source.of_packed (W.Executor.packed (W.Executor.create ~insts p))
  in
  List.iter
    (fun configs ->
      Alcotest.(check bool) "evals identical" true
        (U.Cmp.evaluate_many ~insts configs p
        = U.Cmp.evaluate_source configs p src))
    [ U.Cmp.standard_configs; U.Cmp.learned_configs ]

(* ------------------------------------------------------------------ *)

let test_cmp_configs () =
  Alcotest.(check int) "baseline cores" 8 (U.Cmp.n_cores U.Cmp.baseline_cmp);
  Alcotest.(check int) "asym++ cores" 9 (U.Cmp.n_cores U.Cmp.asymmetric_plus_cmp);
  (* Asymmetric++ fits the Baseline CMP area budget (the paper's whole
     point): 9 cores with tailored workers vs 8 baseline cores. *)
  let base = U.Cmp.area_mm2 U.Cmp.baseline_cmp in
  let plus = U.Cmp.area_mm2 U.Cmp.asymmetric_plus_cmp in
  Alcotest.(check bool)
    (Printf.sprintf "area %.1f within 3%% of %.1f" plus base)
    true
    (plus /. base < 1.03)

let test_cmp_baseline_self_relative () =
  let p = W.Suites.find "FT" in
  let e = U.Cmp.evaluate ~insts:100_000 U.Cmp.baseline_cmp p in
  let r = U.Cmp.relative e ~baseline:e in
  checkf 1e-9 "time" 1.0 r.time;
  checkf 1e-9 "power" 1.0 r.power;
  checkf 1e-9 "ed" 1.0 r.ed

let test_cmp_asym_plus_speeds_up_hpc () =
  let p = W.Suites.find "FT" in
  let evals = U.Cmp.evaluate_many ~insts:200_000 U.Cmp.standard_configs p in
  let base = List.nth evals 0 and plus = List.nth evals 3 in
  let r = U.Cmp.relative plus ~baseline:base in
  Alcotest.(check bool)
    (Printf.sprintf "asym++ faster (%.3f)" r.time)
    true (r.time < 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "asym++ draws more power (%.3f)" r.power)
    true
    (r.power > 1.0)

let test_cmp_sequential_unaffected_by_extra_cores () =
  (* SPEC INT runs on the master; Asymmetric(+) masters are baseline
     cores, so time must match the Baseline CMP exactly. *)
  let p = W.Suites.find "h264ref" in
  let evals = U.Cmp.evaluate_many ~insts:200_000 U.Cmp.standard_configs p in
  let base = List.nth evals 0 and asym = List.nth evals 2 in
  checkf 1e-6 "same serial time" 1.0
    (U.Cmp.relative asym ~baseline:base).time

let test_cmp_tailored_masters_hurt_serial_code () =
  let p = W.Suites.find "gobmk" in
  let evals = U.Cmp.evaluate_many ~insts:300_000 U.Cmp.standard_configs p in
  let base = List.nth evals 0 and tailored = List.nth evals 1 in
  let r = U.Cmp.relative tailored ~baseline:base in
  Alcotest.(check bool)
    (Printf.sprintf "tailored slower on desktop code (%.3f)" r.time)
    true (r.time > 1.01)

let () =
  Alcotest.run "uarch"
    [ ("cacti",
       [ Alcotest.test_case "fit anchors" `Quick test_cacti_fit_anchors;
         Alcotest.test_case "fit monotone" `Quick test_cacti_fit_monotone;
         Alcotest.test_case "fit invalid" `Quick test_cacti_fit_invalid;
         Alcotest.test_case "generic sram" `Quick test_cacti_generic_sram ]);
      ("mcpat",
       [ Alcotest.test_case "Table III baseline" `Quick test_mcpat_table3_baseline;
         Alcotest.test_case "Table III tailored" `Quick test_mcpat_table3_tailored;
         Alcotest.test_case "headline savings" `Quick test_mcpat_headline_savings;
         Alcotest.test_case "monotone" `Quick test_mcpat_monotone_in_icache ]);
      ("timing",
       [ Alcotest.test_case "frontend config bp" `Quick test_frontend_config_bp;
         Alcotest.test_case "cpi formula" `Quick test_timing_cpi_formula;
         Alcotest.test_case "measure sections" `Quick test_timing_measure_sections;
         Alcotest.test_case "measure_many" `Quick
           test_timing_measure_many_consistent ]);
      ("oracle", Qseed.all [ prop_measure_many_oracle ]);
      ("cmp",
       [ Alcotest.test_case "configs" `Quick test_cmp_configs;
         Alcotest.test_case "self relative" `Quick test_cmp_baseline_self_relative;
         Alcotest.test_case "asym++ speedup" `Quick
           test_cmp_asym_plus_speeds_up_hpc;
         Alcotest.test_case "sequential unaffected" `Quick
           test_cmp_sequential_unaffected_by_extra_cores;
         Alcotest.test_case "tailored hurts desktop" `Quick
           test_cmp_tailored_masters_hurt_serial_code;
         Alcotest.test_case "stream wrapper == packed source" `Quick
           test_cmp_stream_wrapper_matches_source ]) ]
