(** Chip-multiprocessor evaluation (paper Section V, Figs. 10 and 11).

    A CMP is a master core plus worker cores. HPC benchmarks run one
    thread per core (the master executes the serial sections and its
    share of the parallel sections); SPEC INT runs sequentially on
    the master. Execution time, average power, energy, energy-delay
    and area are derived from the {!Timing} model, the
    {!Mcpat} budgets, and the benchmark's scaling hints. *)

type config = {
  cname : string;
  master : Frontend_config.t;
  workers : Frontend_config.t;
  n_workers : int;
}

val baseline_cmp : config
(** 8 baseline cores ("Baseline CMP (8B)"). *)

val tailored_cmp : config
(** 8 tailored cores. *)

val asymmetric_cmp : config
(** 1 baseline + 7 tailored. *)

val asymmetric_plus_cmp : config
(** 1 baseline + 8 tailored — same area budget as {!baseline_cmp}. *)

val standard_configs : config list
(** The four Fig. 10 configurations, in the paper's order. *)

val tailored_preuse_cmp : config
(** 8 tailored cores with perceptron reuse/bypass I-caches. *)

val asymmetric_plus_preuse_cmp : config
(** 1 baseline + 8 tailored-preuse cores. *)

val learned_configs : config list
(** The fig10p configurations: baseline and tailored references plus
    the two learned-replacement arrangements. *)

type eval = {
  time : float;  (** seconds (at the model's 2GHz clock) *)
  power : float;  (** time-averaged watts, cores + private L2s *)
  energy : float;  (** joules *)
  ed : float;  (** energy-delay product *)
  area : float;  (** mm^2, cores + private L2s *)
}

val n_cores : config -> int
val area_mm2 : config -> float

val evaluate_source :
  config list -> Repro_workload.Profile.t -> Repro_analysis.Tool.Source.t ->
  eval list
(** Evaluate every configuration against one benchmark's instruction
    source. The cores' front-end rates come from
    {!Timing.measure_many}, which simulates each distinct predictor,
    BTB and I-cache once for all configs; over a packed capture that
    is the same resident trace the sweep figures replay. The measured
    thread-0 parallel instruction count is multiplied by the thread
    count (8) to recover total parallel work. *)

val evaluate : ?insts:int -> config -> Repro_workload.Profile.t -> eval
(** {!evaluate_many} of one configuration. *)

val evaluate_many :
  ?insts:int -> config list -> Repro_workload.Profile.t -> eval list
(** {!evaluate_source} over a freshly generated stream of the
    benchmark ([insts] instructions); the stream is re-run once per
    structure kind. *)

val relative : eval -> baseline:eval -> eval
(** Field-wise ratio to a baseline evaluation. *)
