module U = Repro_uarch
module W = Repro_workload

type estimate = {
  config : U.Frontend_config.t;
  area_mm2 : float;
  power_w : float;
  slowdown : float;
  avg_slowdown : float;
}

type recommendation = {
  chosen : estimate;
  baseline : estimate;
  candidates : estimate list;
  rationale : string list;
}

let default_candidates =
  let open U.Frontend_config in
  let bps =
    [ (Tournament { addr_bits = 10; history_bits = 8 }, true);
      (Tournament { addr_bits = 10; history_bits = 8 }, false);
      (Tournament { addr_bits = 12; history_bits = 14 }, false) ]
  in
  List.concat_map
    (fun (icache_bytes, icache_line) ->
      List.concat_map
        (fun (bp, bp_loop) ->
          List.map
            (fun btb_entries ->
              { icache_bytes;
                icache_line;
                icache_assoc = 8;
                icache_repl = Repro_frontend.Replacement.Lru;
                bp;
                bp_loop;
                btb_entries;
                btb_assoc = 8 })
            [ 256; 512; 2048 ])
        bps)
    [ (8192, 64); (8192, 128); (16384, 64); (16384, 128); (32768, 64) ]

(* Workload time under a configuration: serial on the candidate core
   plus its parallel share, from the same CPI model the CMP evaluation
   uses. We compare single-core time ratios, which is what "no
   performance loss" means for a worker core. *)
let workload_time (p : W.Profile.t) (m : U.Timing.measurement) =
  let stall = p.perf.data_stall_cpi in
  let s = float_of_int m.U.Timing.serial_insts in
  let par = float_of_int m.U.Timing.parallel_insts in
  (s *. U.Timing.cpi ~data_stall:stall m.U.Timing.serial)
  +. (par *. U.Timing.cpi ~data_stall:stall m.U.Timing.parallel)

let estimate ?insts config profiles =
  if profiles = [] then invalid_arg "Rebalance.estimate: no profiles";
  let ratios =
    List.map
      (fun (p : W.Profile.t) ->
        let executor = W.Executor.create ?insts p in
        let src = Repro_analysis.Tool.Source.of_trace (W.Executor.trace executor) in
        match
          U.Timing.measure_many [ config; U.Frontend_config.baseline ] src
        with
        | [ m_cfg; m_base ] ->
            workload_time p m_cfg /. workload_time p m_base
        | _ -> assert false)
      profiles
  in
  { config;
    area_mm2 = U.Mcpat.core_area_mm2 config;
    power_w = U.Mcpat.core_power_w config;
    slowdown = List.fold_left Float.max neg_infinity ratios;
    avg_slowdown = Repro_util.Stats.mean ratios }

let recommend ?insts ?(max_slowdown = 0.03)
    ?(candidates = default_candidates) profiles =
  if candidates = [] then invalid_arg "Rebalance.recommend: no candidates";
  let baseline = estimate ?insts U.Frontend_config.baseline profiles in
  let estimates = List.map (fun c -> estimate ?insts c profiles) candidates in
  let sorted =
    List.sort (fun a b -> compare a.area_mm2 b.area_mm2) estimates
  in
  let acceptable =
    List.filter (fun e -> e.slowdown <= 1.0 +. max_slowdown) sorted
  in
  let chosen = match acceptable with e :: _ -> e | [] -> baseline in
  let rationale =
    [ Printf.sprintf "%d candidate designs swept over %d workloads"
        (List.length candidates) (List.length profiles);
      Printf.sprintf
        "picked %s: %.2f mm2 (%.0f%% of baseline), %.2f W, worst slowdown %+.1f%%"
        (U.Frontend_config.name chosen.config)
        chosen.area_mm2
        (100.0 *. chosen.area_mm2 /. baseline.area_mm2)
        chosen.power_w
        (100.0 *. (chosen.slowdown -. 1.0));
      (if chosen == baseline then
         "no downsized design met the slowdown bound; keeping the baseline"
       else
         Printf.sprintf "area saving %.0f%%, power saving %.0f%%"
           (100.0 *. (1.0 -. (chosen.area_mm2 /. baseline.area_mm2)))
           (100.0 *. (1.0 -. (chosen.power_w /. baseline.power_w)))) ]
  in
  { chosen; baseline; candidates = sorted; rationale }
