(* Quickstart: generate one HPC benchmark, run the Pin-style analysis
   tools over its dynamic trace, and simulate two branch predictors.

     dune exec examples/quickstart.exe *)

module W = Repro_workload
module A = Repro_analysis

let () =
  (* 1. Pick a calibrated benchmark profile and build its executable
        program (a synthetic code image plus an interpreter). *)
  let profile = W.Suites.find "FT" in
  let executor = W.Executor.create ~insts:500_000 profile in

  (* 2. Capture the dynamic trace once, like one Pin run, and replay
        it through the "pintools" and a fused sweep of two branch
        predictors. *)
  let src = A.Tool.Source.of_packed (W.Executor.packed executor) in
  let mix = A.Branch_mix.create () in
  let bias = A.Branch_bias.create () in
  A.Tool.run_all_source src
    [ A.Branch_mix.observer mix; A.Branch_bias.observer bias ];
  let bp =
    A.Bp_sweep.run src
      (Array.map A.Bp_sweep.of_name [| "gshare-small"; "L-gshare-small" |])
  in

  (* 3. Read the results. *)
  let total = A.Branch_mix.Total in
  Printf.printf "benchmark        : %s (%s)\n" profile.name
    (W.Suite.to_string profile.suite);
  Printf.printf "instructions     : %d\n" (A.Branch_mix.insts mix total);
  Printf.printf "branch share     : %.1f%%\n"
    (100.0 *. A.Branch_mix.branch_fraction mix total);
  Printf.printf "biased branches  : %.0f%% of dynamic conditionals\n"
    (100.0 *. A.Branch_bias.biased_fraction bias total);
  Printf.printf "gshare-2KB MPKI  : %.2f\n" (A.Bp_sweep.mpki bp.(0) total);
  Printf.printf "  + loop BP MPKI : %.2f\n" (A.Bp_sweep.mpki bp.(1) total);
  print_endline
    "\nThe loop predictor recovers most of the small predictor's losses on\n\
     loop-dominated HPC code - the core observation behind the paper's\n\
     tailored front-end."
