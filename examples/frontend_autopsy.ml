(* Front-end autopsy: for one benchmark, combine the deeper analysis
   tools — working-set curve, history predictability, basic-block
   reuse distance — and cross-check the analytic CPI model against
   the cycle-approximate fetch pipeline on both core designs.

     dune exec examples/frontend_autopsy.exe [-- bench [insts]] *)

module W = Repro_workload
module A = Repro_analysis
module U = Repro_uarch

let () =
  let bench = try Sys.argv.(1) with _ -> "CoMD" in
  let insts = try int_of_string Sys.argv.(2) with _ -> 600_000 in
  let p = W.Suites.find bench in
  let src =
    A.Tool.Source.of_packed (W.Executor.packed (W.Executor.create ~insts p))
  in

  (* One capture, replayed twice: a pass for learnability, reuse
     distances and the fetch pipeline under both configurations, and
     a fused sweep for the working-set curve. *)
  let pred = A.Predictability.create () in
  let rd = A.Reuse_distance.create () in
  let pipe_base = U.Fetch_pipeline.create U.Frontend_config.baseline in
  let pipe_tail = U.Fetch_pipeline.create U.Frontend_config.tailored in
  A.Tool.run_all_source src
    [ A.Predictability.observer pred; A.Reuse_distance.observer rd;
      U.Fetch_pipeline.observer pipe_base;
      U.Fetch_pipeline.observer pipe_tail ];
  let curve = A.Working_set.curve src in

  Printf.printf "=== %s (%s) ===\n\n" bench (W.Suite.to_string p.suite);

  Printf.printf "History predictability (16-bit GHR):\n";
  Printf.printf "  %d conditional executions over %d sites\n"
    (A.Predictability.conditionals pred)
    (A.Predictability.distinct_sites pred);
  Printf.printf "  novelty rate %.1f%%, %.1f history patterns per site\n\n"
    (100.0 *. A.Predictability.novelty_rate pred)
    (A.Predictability.pairs_per_site pred);

  Printf.printf "Instruction working-set curve (64B lines, 4-way):\n";
  List.iter
    (fun (size, mpki) ->
      Printf.printf "  %-6s %6.2f MPKI\n" (Repro_util.Units.pp_bytes size) mpki)
    curve;
  (match A.Working_set.knee curve with
  | Some k -> Printf.printf "  knee: %s\n\n" (Repro_util.Units.pp_bytes k)
  | None -> print_endline "  knee: beyond 128KB\n");

  Printf.printf "Basic-block reuse distance (%d block executions):\n"
    (A.Reuse_distance.executions rd);
  List.iter
    (fun (label, frac) ->
      if frac > 0.005 then
        Printf.printf "  %-9s %5.1f%%\n" label (100.0 *. frac))
    (A.Reuse_distance.histogram rd);
  Printf.printf "  short-reuse (<=3 blocks) share: %.0f%%\n\n"
    (100.0 *. A.Reuse_distance.short_reuse_fraction rd);

  Printf.printf "Fetch pipeline (cycle-approximate front-end bound):\n";
  List.iter2
    (fun label pipe ->
      Printf.printf "  %-9s front-end CPI %.3f  (" label
        (U.Fetch_pipeline.frontend_cpi pipe);
      List.iter
        (fun (cause, cyc) ->
          Printf.printf "%s %.0f%%  " cause
            (100.0 *. cyc /. U.Fetch_pipeline.cycles pipe))
        (U.Fetch_pipeline.breakdown pipe);
      print_endline ")")
    [ "baseline"; "tailored" ]
    [ pipe_base; pipe_tail ];
  Printf.printf
    "\nIf the tailored front-end CPI matches the baseline's, the paper's\n\
     downsizing is safe for this workload.\n"
