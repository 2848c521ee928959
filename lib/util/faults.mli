(** Deterministic, seed-driven fault injection.

    A registry of named fault {e sites} threaded through the hot
    paths of the engine, the persistent cache, the packed-trace
    capture, and the dispatch worker pool. Each site calls {!inject}
    (or {!fires} when the simulated failure is not an exception, e.g.
    a torn write); with no rules configured both are a single boolean
    load, so production runs pay nothing — the same zero-cost
    discipline as {!Telemetry}.

    Rules come from the [REPRO_FAULTS] environment variable or
    {!configure}, as a comma-separated list of [site:prob:seed]
    triples:

    {v REPRO_FAULTS=engine.task:0.1:7,cache.decode:0.02:3
       REPRO_FAULTS=all:0.05:42 v}

    [site] is a name from {!sites} or [all] (every site); [prob] is
    the per-draw injection probability, clamped to [0..1]; [seed]
    is an integer mixed into every draw. A malformed entry (unknown
    site, non-numeric probability or seed) is diagnosed once on
    stderr and skipped — never silently treated as valid. Each draw
    hashes (seed, site, draw counter), so a fixed spec produces a
    reproducible injection {e rate}; which concrete task receives a
    fault still depends on scheduling, which is exactly what the
    supervision layer must tolerate. *)

exception Injected of string
(** Raised by {!inject} with the site name. Classified as
    [Transient] by {!Repro_core.Failure.classify}, so supervised
    runs retry it. *)

val sites : string list
(** Catalogue of the sites wired into the codebase:
    [engine.task] (raised at every Engine task dispatch, before the
    task body), [trace.capture] (raised at packed-trace capture),
    [cache.read] (simulated read I/O error: the lookup misses),
    [cache.decode] (simulated corrupt entry: quarantined then
    missed), [cache.write] (simulated write I/O error: the store is
    dropped), [cache.write.torn] (a truncated entry is written to
    the final path, simulating a crash mid-write), [dispatch.spawn]
    (a worker process fails to start: the pool runs short),
    [dispatch.lease] (the coordinator's lease grant is torn: the
    worker's channel is severed and the task re-issued),
    [dispatch.result] (a worker dies after computing a task but
    before acknowledging it — the canonical at-least-once hazard). *)

val configure : string option -> unit
(** Replace the rule set from a spec string; [None] or [Some ""]
    disables injection. Called once at startup with [REPRO_FAULTS]
    when set. *)

val refresh_from_env : unit -> unit
(** Re-read [REPRO_FAULTS] and {!configure} from it. The startup
    configuration is exactly one call to this; a long-lived process
    (the Server daemon's reload path) calls it again so a changed
    environment does not silently keep the stale fault config. *)

val spec : unit -> string option
(** The spec currently in force (normalized), [None] when disabled. *)

val active : unit -> bool
(** At least one rule is configured. *)

val fires : string -> bool
(** One deterministic draw at [site]: [true] with the configured
    probability, counted in {!injected}; always [false] when no rule
    matches. Use directly when the fault is simulated in-line (torn
    writes) rather than raised. *)

val inject : string -> unit
(** [if fires site then raise (Injected site)]. *)

val injected : unit -> int
(** Total faults fired since startup (all sites). *)
