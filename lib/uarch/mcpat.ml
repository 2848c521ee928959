(* Anchors are the paper's Table III values (Cortex-A9 class, 40nm):

     baseline:  I$ 32KB/64B  0.31 mm2 / 0.075 W
                BP 16KB      0.14 mm2 / 0.032 W
                BTB 2K       0.125 mm2 / 0.017 W
                core total   2.49 mm2 / 0.85 W
     tailored:  I$ 16KB/128B 0.14 mm2 / 0.049 W
                BP 2.5KB+LBP 0.04 mm2 / 0.011 W
                BTB 256      0.022 mm2 / 0.002 W

   Rest-of-core is the fixed remainder of the baseline totals. *)

type budget = {
  icache_mm2 : float;
  bp_mm2 : float;
  btb_mm2 : float;
  rest_mm2 : float;
  icache_w : float;
  bp_w : float;
  btb_w : float;
  rest_w : float;
}

let icache_bits cfg =
  float_of_int
    (Repro_frontend.Icache.storage_bits
       (Repro_frontend.Icache.create
          ~policy:cfg.Frontend_config.icache_repl
          ~size_bytes:cfg.Frontend_config.icache_bytes
          ~line_bytes:cfg.Frontend_config.icache_line
          ~assoc:cfg.Frontend_config.icache_assoc ()))

let btb_bits cfg =
  float_of_int
    (Repro_frontend.Btb.storage_bits
       (Repro_frontend.Btb.create
          ~entries:cfg.Frontend_config.btb_entries
          ~assoc:cfg.Frontend_config.btb_assoc))

let bp_bits cfg = float_of_int (Frontend_config.bp_bits cfg)

(* Anchor abscissae measured from the two named configurations, so
   the fits return the published values exactly for them. *)
let base_cfg = Frontend_config.baseline
let tail_cfg = Frontend_config.tailored

let icache_area_fit =
  Cacti.powerlaw_fit (icache_bits base_cfg, 0.31) (icache_bits tail_cfg, 0.14)

let icache_power_fit =
  Cacti.powerlaw_fit (icache_bits base_cfg, 0.075) (icache_bits tail_cfg, 0.049)

let bp_area_fit =
  Cacti.powerlaw_fit (bp_bits base_cfg, 0.14) (bp_bits tail_cfg, 0.04)

let bp_power_fit =
  Cacti.powerlaw_fit (bp_bits base_cfg, 0.032) (bp_bits tail_cfg, 0.011)

let btb_area_fit =
  Cacti.powerlaw_fit (btb_bits base_cfg, 0.125) (btb_bits tail_cfg, 0.022)

let btb_power_fit =
  Cacti.powerlaw_fit (btb_bits base_cfg, 0.017) (btb_bits tail_cfg, 0.002)

let rest_mm2 = 2.49 -. (0.31 +. 0.14 +. 0.125)
let rest_w = 0.85 -. (0.075 +. 0.032 +. 0.017)

let compute cfg =
  let icache = icache_bits cfg and bp = bp_bits cfg and btb = btb_bits cfg in
  { icache_mm2 = Cacti.eval icache_area_fit icache;
    bp_mm2 = Cacti.eval bp_area_fit bp;
    btb_mm2 = Cacti.eval btb_area_fit btb;
    rest_mm2;
    icache_w = Cacti.eval icache_power_fit icache;
    bp_w = Cacti.eval bp_power_fit bp;
    btb_w = Cacti.eval btb_power_fit btb;
    rest_w }

(* A budget is a pure function of the configuration, but computing it
   builds a real I-cache, BTB and predictor to read their storage, and
   the CMP figures ask for the same few configurations once per core
   per benchmark. Memoized process-wide; the lock makes it safe from
   any domain. *)
let memo : (Frontend_config.t, budget) Hashtbl.t = Hashtbl.create 8
let memo_lock = Mutex.create ()

let budget cfg =
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo cfg with
      | Some b -> b
      | None ->
          let b = compute cfg in
          Hashtbl.add memo cfg b;
          b)

let core_area_mm2 cfg =
  let b = budget cfg in
  b.icache_mm2 +. b.bp_mm2 +. b.btb_mm2 +. b.rest_mm2

let core_power_w cfg =
  let b = budget cfg in
  b.icache_w +. b.bp_w +. b.btb_w +. b.rest_w

let static_power_fraction = 0.35
let l2_power_w = 0.14
let l2_area_mm2 = 1.1

let area_saving_vs_baseline cfg =
  1.0 -. (core_area_mm2 cfg /. core_area_mm2 Frontend_config.baseline)

let power_saving_vs_baseline cfg =
  1.0 -. (core_power_w cfg /. core_power_w Frontend_config.baseline)
