(** The figure table: one entry per table and figure of the paper's
    evaluation, each runnable on the synthetic benchmark suites and
    rendered as a plain-text table next to the paper's reference
    values.

    Each figure is declared once, with its key, description, renderer
    and the artifacts it reads (characterizations for figs 1-4, rows
    for figs 5-9, CMP evaluations for figs 10-11); {!to_string},
    {!describe}, {!tasks_for}, {!run_task} and {!run} derive from it.

    Traces are expensive, so characterizations and CMP measurements
    are memoized per [(benchmark, scale)] within the process and
    persisted across processes by {!Cache}, and every measurement
    replays the one packed capture of the benchmark: a harness that
    runs every experiment generates each benchmark's trace once per
    process, and only while some artifact it reads is missing.
    Per-benchmark trace runs are sharded across cores by {!Engine};
    each benchmark's generator is reseeded from its profile, so
    parallel results are bit-identical to sequential ones. *)

type id =
  | Fig1  (** dynamic branch-instruction breakdown *)
  | Fig2  (** conditional-branch bias distribution *)
  | Tab1  (** backward vs forward taken branches *)
  | Fig3  (** static and 99%-dynamic instruction footprints *)
  | Fig4  (** basic-block length, distance between taken branches *)
  | Fig5  (** branch MPKI across predictor configurations *)
  | Fig6  (** branch MPKI breakdown by mispredicted outcome *)
  | Fig7  (** BTB MPKI across sizes and associativities *)
  | Fig8  (** I-cache MPKI across sizes and associativities *)
  | Fig8p
      (** I-cache MPKI with perceptron reuse/bypass replacement,
          plus the headline 16KB-preuse vs 32KB-LRU comparison *)
  | Fig9  (** I-cache MPKI across line widths *)
  | Tab2  (** branch-predictor hardware budgets *)
  | Tab3  (** per-structure area and power on the core budget *)
  | Fig10  (** CMP execution time, power, energy, energy-delay *)
  | Fig10p
      (** CMP comparison with learned I-cache replacement in the
          tailored cores *)
  | Fig11  (** per-benchmark CMP execution time *)

val all : id list
(** Paper order. *)

val to_string : id -> string
(** Lower-case key, e.g. ["fig1"], ["tab3"]. *)

val of_string : string -> id option
val describe : id -> string

val run : ?scale:float -> ?jobs:int -> id -> Repro_util.Table.t list
(** Execute the experiment and render its tables. [scale] multiplies
    every benchmark's dynamic instruction budget (default 1.0; tests
    use ~0.05 for speed, at some fidelity cost). [jobs] bounds the
    {!Engine} pool sharding per-benchmark work (default
    {!Engine.default_jobs}; [1] forces a sequential run). The
    rendered tables do not depend on [jobs].

    Per-benchmark measurements of the trace-simulating experiments
    (figs 5-9) run supervised: a benchmark that still fails after
    {!Engine}'s retry budget degrades to a ["!"] hole — every cell an
    aggregate row would have drawn from it renders as ["!"] (never a
    silent mean over the survivors) and a final "Degraded run" table
    lists each lost measurement with its structured failure. In
    strict mode the first such failure raises {!Failure.Error}
    instead. *)

(** The fig8p question in numbers: does a 16KB/64B/4-way I-cache under
    perceptron reuse/bypass replacement beat the 32KB/64B/4-way LRU
    baseline? Each MPKI is the mean over every benchmark. *)
type learned = {
  lru_mpki : float;  (** 32KB LRU reference *)
  preuse_mpki : float;  (** 16KB preuse *)
  crossover_size : int option;
      (** the smallest preuse size of 8K, 16K and 32K (4-way) whose
          mean MPKI does not exceed [lru_mpki]; [None] when none does *)
}

val learned : ?jobs:int -> scale:float -> unit -> learned option
(** Computed from fig8p's persistent rows (the headline pair and the
    4-way column of the sweep), read through the {!Cache} like a
    render of fig8p. [None] when any of those rows is a hole. *)

val holes : unit -> (string * Failure.t) list
(** Degradation holes recorded by the most recent {!run} (cleared at
    the start of each run): [(measurement, failure)] in the order
    they were recorded. Empty after a clean run — or any run in
    strict mode. *)

val set_strict : bool -> unit
(** Enable or disable strict (fail-fast) mode, overriding
    [REPRO_STRICT]. When strict, a supervised measurement failure
    raises {!Failure.Error} out of {!run} instead of degrading to a
    hole. Default: degrade (unless [REPRO_STRICT=1]). *)

val strict_enabled : unit -> bool

val clear_cache : ?disk:bool -> unit -> unit
(** Drop memoized characterizations, measurements and packed traces;
    with [~disk:true] also delete the persistent {!Cache} entries.

    Every measured figure (the characterization of figs 1-4, the
    sweeps of figs 5-9, the CMP evaluations of figs 10, 10p and 11)
    replays one {!Repro_isa.Packed_trace} capture per (benchmark,
    scale), held in a process-wide LRU memo under a byte budget
    ([REPRO_PACKED_MB], default 512). Captures never reach the disk
    cache. The telemetry counters [experiment.captures] and
    [experiment.capture_evictions] count the memo's captures and
    evictions; a capture that hits the injected [trace.capture] fault
    streams that pass instead (counted in
    [experiment.capture_fallbacks]), with identical results. *)

(** {1 Task decomposition}

    The unit of work the {!Dispatch} layer shards across worker
    processes: one persistent-cache artifact for one benchmark — a
    characterization, a CMP evaluation family, or one figure row (the
    full per-benchmark vector across a figure's configuration axis).
    An experiment's tasks are one per benchmark of each artifact
    family its figure declares, in declaration order.
    Running a task stores its artifact in the shared {!Cache} and
    returns nothing over the wire; the coordinator re-renders from
    the cache, which is what makes an N-worker run byte-identical to
    [-j1] regardless of which worker computed what or in what
    order. *)

type task = { t_kind : string; t_bench : string }
(** [t_kind] names an artifact family: ["charz"], a CMP family's
    cache kind (["cmp"], ["cmpl"]), or ["row.<tag>"] where [<tag>]
    carries a digest of the figure's configuration axis; [t_bench] is
    a benchmark profile name. *)

val task_id : task -> string
(** Stable string form, ["<kind>|<bench>"] — used as journal step and
    wire identifier. *)

val tasks_for : id -> task list
(** Deterministic decomposition of an experiment into tasks, matching
    exactly the artifacts {!run} will read. Empty for the analytical
    tables ([Tab2], [Tab3]). *)

val run_task : scale:float -> task -> bool
(** Execute one task, storing its artifact in the {!Cache}. The kind
    is looked up among the artifact families of every figure, and
    any benchmark of the suites is accepted for it.
    Returns [false] for an unknown kind/tag or benchmark (a
    version-skewed coordinator), [true] otherwise — including tasks
    whose measurement degraded to a hole, which simply store nothing
    and recompute at render time. *)
