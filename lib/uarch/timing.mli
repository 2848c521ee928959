(** Front-end-aware core timing model (the Sniper substitute).

    The paper uses Sniper only to translate front-end miss-rate
    differences into execution-time differences on Cortex-A9-like
    cores. This model does exactly that translation: a base CPI for
    the dual-issue lean core, a per-benchmark data-side stall term
    (from {!Repro_workload.Profile.perf_hints}), plus the measured
    front-end event rates weighted by their penalties. *)

type rates = { bp_mpki : float; btb_mpki : float; icache_mpki : float }

type measurement = {
  serial : rates;
  parallel : rates;
  total : rates;
  serial_insts : int;
  parallel_insts : int;
}

val measure_many :
  Frontend_config.t list -> Repro_analysis.Tool.Source.t -> measurement list
(** Measure every configuration over the source, result [i] for
    config [i]. Each distinct structure — branch predictor, BTB
    geometry, I-cache geometry and policy — is simulated once, by
    the fused {!Repro_analysis.Bp_sweep}, {!Repro_analysis.Btb_sweep}
    and {!Repro_analysis.Icache_sweep} kernels (one pass over the
    source each), and shared by every config that uses it: the
    tailored core and its preuse variant share one predictor run and
    one BTB run. Rates are bit-identical to one run per config
    (the sweeps' differential tests pin that). Over a packed source
    the predictor and BTB passes replay only branch events. *)

(** {1 CPI model} *)

val base_cpi : float
(** Issue-limited CPI of the lean core with a perfect front-end. *)

val bp_penalty : float
(** Cycles per branch misprediction (12, per the paper's Table III). *)

val btb_penalty : float
(** Cycles per taken-branch target miss (fetch redirect). *)

val icache_penalty : float
(** Cycles per I-cache miss (L2 hit latency). *)

val cpi : data_stall:float -> rates -> float
(** [cpi ~data_stall rates] combines base CPI, the benchmark's
    data-side stalls, and front-end penalties. *)
