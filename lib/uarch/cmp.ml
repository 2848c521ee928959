type config = {
  cname : string;
  master : Frontend_config.t;
  workers : Frontend_config.t;
  n_workers : int;
}

let baseline_cmp =
  { cname = "Baseline CMP (8B)";
    master = Frontend_config.baseline;
    workers = Frontend_config.baseline;
    n_workers = 7 }

let tailored_cmp =
  { cname = "Tailored CMP (8T)";
    master = Frontend_config.tailored;
    workers = Frontend_config.tailored;
    n_workers = 7 }

let asymmetric_cmp =
  { cname = "Asymmetric CMP (1B+7T)";
    master = Frontend_config.baseline;
    workers = Frontend_config.tailored;
    n_workers = 7 }

let asymmetric_plus_cmp =
  { cname = "Asymmetric++ CMP (1B+8T)";
    master = Frontend_config.baseline;
    workers = Frontend_config.tailored;
    n_workers = 8 }

let standard_configs =
  [ baseline_cmp; tailored_cmp; asymmetric_cmp; asymmetric_plus_cmp ]

(* Fig 10p: the learned-replacement counterparts — the tailored core
   with perceptron reuse/bypass in the I-cache, alone and in the
   area-neutral asymmetric++ arrangement, against the two standard
   reference points. *)
let tailored_preuse_cmp =
  { cname = "Tailored-P CMP (8TP)";
    master = Frontend_config.tailored_preuse;
    workers = Frontend_config.tailored_preuse;
    n_workers = 7 }

let asymmetric_plus_preuse_cmp =
  { cname = "Asymmetric++-P CMP (1B+8TP)";
    master = Frontend_config.baseline;
    workers = Frontend_config.tailored_preuse;
    n_workers = 8 }

let learned_configs =
  [ baseline_cmp; tailored_cmp; tailored_preuse_cmp;
    asymmetric_plus_preuse_cmp ]

type eval = {
  time : float;
  power : float;
  energy : float;
  ed : float;
  area : float;
}

let n_cores c = c.n_workers + 1
let threads = 8 (* the paper runs 8 threads / processes *)
let clock_hz = 2.0e9

let area_mm2 c =
  Mcpat.core_area_mm2 c.master
  +. (float_of_int c.n_workers *. Mcpat.core_area_mm2 c.workers)
  +. (float_of_int (n_cores c) *. Mcpat.l2_area_mm2)

(* Evaluate one CMP from per-core-type measurements of the same
   benchmark trace. *)
let eval_from_measurements c (p : Repro_workload.Profile.t)
    (m_master : Timing.measurement) (m_workers : Timing.measurement) =
  let stall = p.perf.data_stall_cpi in
  let serial_insts = float_of_int m_master.Timing.serial_insts in
  (* Thread 0's parallel instructions scaled to all threads. *)
  let parallel_work =
    float_of_int m_master.Timing.parallel_insts *. float_of_int threads
  in
  let cpi_serial = Timing.cpi ~data_stall:stall m_master.Timing.serial in
  let cpi_par_master = Timing.cpi ~data_stall:stall m_master.Timing.parallel in
  let cpi_par_worker = Timing.cpi ~data_stall:stall m_workers.Timing.parallel in
  (* The master joins the parallel regions; with static work division
     the slowest participant bounds the region. *)
  let n_par = float_of_int (n_cores c) in
  let cpi_par = Float.max cpi_par_master cpi_par_worker in
  let eff_cores = n_par ** p.perf.scale_alpha in
  let serial_cycles = serial_insts *. cpi_serial in
  let par_cycles =
    if parallel_work = 0.0 then 0.0
    else parallel_work *. cpi_par /. eff_cores
  in
  let t_serial = serial_cycles /. clock_hz in
  let t_par = par_cycles /. clock_hz in
  let time = t_serial +. t_par in
  (* Power: full power while a core computes, leakage while it idles;
     private L2 slices are always on. *)
  let p_master = Mcpat.core_power_w c.master in
  let p_worker = Mcpat.core_power_w c.workers in
  let static = Mcpat.static_power_fraction in
  let idle p = static *. p in
  let l2 = float_of_int (n_cores c) *. Mcpat.l2_power_w in
  let e_serial =
    t_serial
    *. (p_master +. (float_of_int c.n_workers *. idle p_worker) +. l2)
  in
  (* During parallel sections every core is busy; imperfect scaling
     shows up as partially-idle dynamic power. *)
  let busy_frac = eff_cores /. n_par in
  let busy p = (static *. p) +. ((1.0 -. static) *. p *. busy_frac) in
  let e_par =
    t_par
    *. (busy p_master +. (float_of_int c.n_workers *. busy p_worker) +. l2)
  in
  let energy = e_serial +. e_par in
  let power = if time > 0.0 then energy /. time else 0.0 in
  { time; power; energy; ed = energy *. time; area = area_mm2 c }

let evaluate_source configs p src =
  (* Timing simulates each distinct structure once, so listing a core
     type once per config costs nothing; per-structure measurements
     are independent, so sharing them never changes any of them. *)
  let cores = List.concat_map (fun c -> [ c.master; c.workers ]) configs in
  let rec pair configs ms =
    match (configs, ms) with
    | c :: configs, m_master :: m_workers :: ms ->
        eval_from_measurements c p m_master m_workers :: pair configs ms
    | _ -> []
  in
  pair configs (Timing.measure_many cores src)

let evaluate_many ?insts configs p =
  let executor = Repro_workload.Executor.create ?insts p in
  evaluate_source configs p
    (Repro_analysis.Tool.Source.of_trace
       (Repro_workload.Executor.trace executor))

let evaluate ?insts config p =
  match evaluate_many ?insts [ config ] p with
  | [ e ] -> e
  | _ -> assert false

let relative e ~baseline =
  { time = e.time /. baseline.time;
    power = e.power /. baseline.power;
    energy = e.energy /. baseline.energy;
    ed = e.ed /. baseline.ed;
    area = e.area /. baseline.area }
