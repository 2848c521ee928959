(* Build a workload profile from scratch with the public API — here, a
   stencil-like kernel with constant trip counts — and check how small
   a front-end it tolerates.

     dune exec examples/custom_workload.exe *)

module W = Repro_workload
module A = Repro_analysis
module U = Repro_uarch

let my_kernel : W.Profile.section =
  { W.Profile.default_section with
    branch_fraction = 0.05;
    avg_inst_bytes = 6.5;
    n_kernels = 2;
    inner_trip = W.Trip.Const 128;
    if_density = 0.4;
    hot_kb = 5.0 }

let my_app : W.Profile.t =
  { name = "my-stencil";
    suite = W.Suite.Npb;
    seed = 4242;
    total_insts = 600_000;
    serial_fraction = 0.01;
    rounds = 4;
    static_kb = 80.0;
    proc_align = 64;
    syscall_per_mil = 1.0;
    perf = W.Profile.default_perf;
    serial = { W.Profile.default_section with hot_kb = 3.0 };
    parallel = my_kernel }

let () =
  (match W.Profile.validate my_app with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let c = A.Characterization.of_profile my_app in
  let total = A.Branch_mix.Total in
  Printf.printf "%s: %.1f%% branches, %.0f%% biased, 99%%-dynamic %s\n\n"
    my_app.name
    (100.0 *. A.Branch_mix.branch_fraction c.mix total)
    (100.0 *. A.Branch_bias.biased_fraction c.bias total)
    (Repro_util.Units.pp_bytes (A.Footprint.hot_bytes c.footprint total));
  (* How do the two named core designs fare on it? *)
  let executor = W.Executor.create my_app in
  let src = A.Tool.Source.of_trace (W.Executor.trace executor) in
  List.iter2
    (fun label m ->
      Printf.printf
        "%-9s CPI %.3f (bp %.2f MPKI, btb %.2f, i$ %.2f)\n" label
        (U.Timing.cpi ~data_stall:my_app.perf.data_stall_cpi m.U.Timing.total)
        m.U.Timing.total.bp_mpki m.U.Timing.total.btb_mpki
        m.U.Timing.total.icache_mpki)
    [ "baseline"; "tailored" ]
    (U.Timing.measure_many
       [ U.Frontend_config.baseline; U.Frontend_config.tailored ]
       src);
  print_endline
    "\nA loop-dominated kernel with a tiny footprint loses nothing on the\n\
     tailored front-end; that area buys an extra core at the CMP level."
