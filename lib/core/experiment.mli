(** The experiment registry: one entry per table and figure of the
    paper's evaluation, each runnable on the synthetic benchmark
    suites and rendered as a plain-text table next to the paper's
    reference values.

    Traces are expensive, so characterizations and CMP measurements
    are memoized per [(benchmark, scale)] within the process and
    persisted across processes by {!Cache}; a harness that runs every
    experiment pays for each benchmark's trace once per kind of
    measurement, ever. Per-benchmark trace runs are sharded across
    cores by {!Engine}; each benchmark's generator is reseeded from
    its profile, so parallel results are bit-identical to sequential
    ones. *)

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
    with [~disk:true] also delete the persistent {!Cache} entries. *)

val set_packed : bool -> unit
(** Enable or disable packed-trace capture for the trace-simulating
    experiments (figs 5-9). When enabled (the default unless
    [REPRO_PACKED=0]), each (benchmark, scale) stream is captured once
    into a {!Repro_isa.Packed_trace} and replayed across sweep
    configurations, under an LRU byte budget ([REPRO_PACKED_MB],
    default 512); [REPRO_PACKED_CACHE=1] additionally persists
    captures through {!Cache}. Results are identical either way. *)

val packed_enabled : unit -> bool

(** {1 Task decomposition}

    The unit of work the {!Dispatch} layer shards across worker
    processes: one persistent-cache artifact for one benchmark — a
    characterization, a CMP evaluation family, or one figure row (the
    full per-benchmark vector across a figure's configuration axis).
    Running a task stores its artifact in the shared {!Cache} and
    returns nothing over the wire; the coordinator re-renders from
    the cache, which is what makes an N-worker run byte-identical to
    [-j1] regardless of which worker computed what or in what
    order. *)

type task = { t_kind : string; t_bench : string }
(** [t_kind] is ["charz"], ["cmp"], ["cmpl"], or ["row.<tag>"] where
    [<tag>] carries a digest of the figure's configuration axis;
    [t_bench] is a benchmark profile name. *)

val task_id : task -> string
(** Stable string form, ["<kind>|<bench>"] — used as journal step and
    wire identifier. *)

val tasks_for : id -> task list
(** Deterministic decomposition of an experiment into tasks, matching
    exactly the artifacts {!run} will read. Empty for the analytical
    tables ([Tab2], [Tab3]). *)

val run_task : scale:float -> task -> bool
(** Execute one task under the current process-wide packed toggle,
    storing its artifact in the {!Cache}.
    Returns [false] for an unknown kind/tag or benchmark (a
    version-skewed coordinator), [true] otherwise — including tasks
    whose measurement degraded to a hole, which simply store nothing
    and recompute at render time. *)
