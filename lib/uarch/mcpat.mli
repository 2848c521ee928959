(** McPAT-like core area and power budget (paper Table III): a
    Cortex-A9-class lean core at 40nm, decomposed into the three
    front-end structures under study plus a fixed rest-of-core.

    The two named design points reproduce the paper's Table III
    absolute values; other configurations are interpolated with
    {!Cacti} power-law fits anchored on those values. *)

type budget = {
  icache_mm2 : float;
  bp_mm2 : float;
  btb_mm2 : float;
  rest_mm2 : float;  (** execution units, D-cache, register files, … *)
  icache_w : float;
  bp_w : float;
  btb_w : float;
  rest_w : float;
}

val budget : Frontend_config.t -> budget
(** Memoized per configuration (safe from any domain). *)

val core_area_mm2 : Frontend_config.t -> float
val core_power_w : Frontend_config.t -> float
(** Peak (fully-active) core power; see {!Cmp} for idle scaling. *)

val static_power_fraction : float
(** Share of core power that is leakage (drawn even when idle). *)

val l2_power_w : float
(** Private 256KB L2 slice power per core. *)

val l2_area_mm2 : float

val area_saving_vs_baseline : Frontend_config.t -> float
(** [1 - area(cfg)/area(baseline)], the paper's headline 16% for the
    tailored configuration. *)

val power_saving_vs_baseline : Frontend_config.t -> float
