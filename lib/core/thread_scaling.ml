module U = Repro_uarch
module W = Repro_workload

type point = {
  n_cores : int;
  serial_share : float;
  tailored_vs_baseline : float;
  asymmetric_vs_baseline : float;
}

(* Serial work S is fixed; parallel work per thread is P/n. The
   measured thread executes S + P/n instructions, so its serial share
   at n threads follows from the share at the calibration point. *)
let serial_share_at ~base_share ~base_threads n =
  if base_share <= 0.0 then 0.0
  else begin
    let s = base_share in
    let p_per_thread = (1.0 -. s) in
    (* parallel work per thread scales with base_threads / n *)
    let p_n = p_per_thread *. float_of_int base_threads /. float_of_int n in
    s /. (s +. p_n)
  end

let cmp_time ~n_cores (p : W.Profile.t) (m_master : U.Timing.measurement)
    (m_worker : U.Timing.measurement) ~serial_share =
  let stall = p.perf.data_stall_cpi in
  (* Rescale measured instruction counts to the target serial share,
     keeping total thread-0 instructions constant. *)
  let total =
    float_of_int (m_master.U.Timing.serial_insts + m_master.U.Timing.parallel_insts)
  in
  let s = total *. serial_share in
  let par0 = total -. s in
  let parallel_work = par0 *. float_of_int n_cores in
  let cpi_ser = U.Timing.cpi ~data_stall:stall m_master.U.Timing.serial in
  let cpi_par =
    Float.max
      (U.Timing.cpi ~data_stall:stall m_master.U.Timing.parallel)
      (U.Timing.cpi ~data_stall:stall m_worker.U.Timing.parallel)
  in
  let eff = float_of_int n_cores ** p.perf.scale_alpha in
  (s *. cpi_ser) +. (parallel_work *. cpi_par /. eff)

let sweep ?insts ?(cores = [ 8; 16; 32; 64 ]) (p : W.Profile.t) =
  let executor = W.Executor.create ?insts p in
  let src = Repro_analysis.Tool.Source.of_trace (W.Executor.trace executor) in
  let m_base, m_tail =
    match
      U.Timing.measure_many
        [ U.Frontend_config.baseline; U.Frontend_config.tailored ]
        src
    with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  List.map
    (fun n ->
      let share =
        serial_share_at ~base_share:p.serial_fraction ~base_threads:8 n
      in
      let baseline = cmp_time ~n_cores:n p m_base m_base ~serial_share:share in
      let tailored = cmp_time ~n_cores:n p m_tail m_tail ~serial_share:share in
      let asymmetric =
        cmp_time ~n_cores:n p m_base m_tail ~serial_share:share
      in
      { n_cores = n;
        serial_share = share;
        tailored_vs_baseline = tailored /. baseline;
        asymmetric_vs_baseline = asymmetric /. baseline })
    cores

let table name points =
  let open Repro_util.Table in
  let t =
    create
      ~title:
        (Printf.sprintf
           "Thread scaling for %s: the serial bottleneck grows with cores"
           name)
      [ ("cores", Right); ("serial share", Right);
        ("Tailored vs Baseline", Right); ("Asymmetric vs Baseline", Right) ]
  in
  List.iter
    (fun pt ->
      add_row t
        [ string_of_int pt.n_cores;
          fmt_pct pt.serial_share;
          fmt_ratio pt.tailored_vs_baseline;
          fmt_ratio pt.asymmetric_vs_baseline ])
    points;
  t
