module U = Repro_uarch
module W = Repro_workload

type variant = { vname : string; config : U.Frontend_config.t }

let base = U.Frontend_config.baseline
let tail = U.Frontend_config.tailored

let with_icache (c : U.Frontend_config.t) =
  { c with
    icache_bytes = tail.icache_bytes;
    icache_line = tail.icache_line;
    icache_assoc = tail.icache_assoc }

let with_bp (c : U.Frontend_config.t) =
  { c with bp = tail.bp; bp_loop = tail.bp_loop }

let with_btb (c : U.Frontend_config.t) =
  { c with btb_entries = tail.btb_entries; btb_assoc = tail.btb_assoc }

let variants =
  [ { vname = "baseline"; config = base };
    { vname = "small I$ only"; config = with_icache base };
    { vname = "small BP+LBP only"; config = with_bp base };
    { vname = "small BTB only"; config = with_btb base };
    { vname = "all but I$"; config = with_btb (with_bp base) };
    { vname = "all but BP"; config = with_btb (with_icache base) };
    { vname = "all but BTB"; config = with_bp (with_icache base) };
    { vname = "tailored (all)"; config = tail } ]

type row = {
  variant : variant;
  area_mm2 : float;
  power_w : float;
  area_saving : float;
  power_saving : float;
  avg_slowdown : float;
  worst_slowdown : float;
}

let workload_time (p : W.Profile.t) (m : U.Timing.measurement) =
  let stall = p.perf.data_stall_cpi in
  (float_of_int m.U.Timing.serial_insts
  *. U.Timing.cpi ~data_stall:stall m.U.Timing.serial)
  +. (float_of_int m.U.Timing.parallel_insts
     *. U.Timing.cpi ~data_stall:stall m.U.Timing.parallel)

let run ?insts profiles =
  if profiles = [] then invalid_arg "Ablation.run: no profiles";
  let configs = List.map (fun v -> v.config) variants in
  (* One measurement per workload covers every variant. *)
  let per_workload =
    List.map
      (fun (p : W.Profile.t) ->
        let executor = W.Executor.create ?insts p in
        let ms =
          U.Timing.measure_many configs
            (Repro_analysis.Tool.Source.of_trace (W.Executor.trace executor))
        in
        let base_time = workload_time p (List.hd ms) in
        List.map (fun m -> workload_time p m /. base_time) ms)
      profiles
  in
  List.mapi
    (fun i v ->
      let ratios = List.map (fun times -> List.nth times i) per_workload in
      { variant = v;
        area_mm2 = U.Mcpat.core_area_mm2 v.config;
        power_w = U.Mcpat.core_power_w v.config;
        area_saving = U.Mcpat.area_saving_vs_baseline v.config;
        power_saving = U.Mcpat.power_saving_vs_baseline v.config;
        avg_slowdown = Repro_util.Stats.mean ratios;
        worst_slowdown = List.fold_left Float.max neg_infinity ratios })
    variants

let table entries =
  let open Repro_util.Table in
  let t =
    create ~title:"Ablation: per-structure contribution of the tailored design"
      [ ("variant", Left); ("area mm2", Right); ("area saved", Right);
        ("power W", Right); ("power saved", Right); ("avg slowdown", Right);
        ("worst slowdown", Right) ]
  in
  List.iter
    (fun r ->
      add_row t
        [ r.variant.vname;
          fmt_float ~decimals:3 r.area_mm2;
          fmt_pct r.area_saving;
          fmt_float ~decimals:3 r.power_w;
          fmt_pct r.power_saving;
          Printf.sprintf "%+.1f%%" (100.0 *. (r.avg_slowdown -. 1.0));
          Printf.sprintf "%+.1f%%" (100.0 *. (r.worst_slowdown -. 1.0)) ])
    entries;
  t
