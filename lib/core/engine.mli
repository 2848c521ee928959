(** Multicore experiment engine: a [Domain]-based pool that shards
    independent per-benchmark tasks across cores, with supervised
    execution on top — per-task retry with exponential backoff for
    transient failures, and a structured-result map for callers that
    degrade instead of abort.

    Tasks must be self-contained (each benchmark's trace generator is
    reseeded from its profile), so a parallel run produces results
    bit-identical to a sequential one; the only shared state is the
    engine's own statistics counters. The pool is created per [map]
    call and always joined before returning — a raising task cannot
    leak domains or deadlock the caller.

    Every task dispatch passes the [engine.task] fault site of
    {!Repro_util.Faults}, so a fault-torture run
    ([REPRO_FAULTS=engine.task:0.1:7]) exercises exactly the retry
    and degradation paths a real crash would.

    When {!Repro_util.Telemetry} is enabled the engine records an
    [engine.batch] span per spawning [map] call with [engine.task]
    child spans (worker domains buffer theirs locally and flush the
    buffers in a finalizer, so partial spans survive a failing
    sibling task; the buffers are merged at join), an
    [engine.busy_ns] counter, outcome counters
    ([engine.tasks_ok/retried/failed]), and an
    [engine.utilization] gauge (busy-time / elapsed x domains). With
    telemetry disabled none of this costs anything and results are
    byte-identical. *)

type stats = {
  tasks_run : int;  (** tasks completed successfully by [map]/[map_result] *)
  batches : int;  (** calls that actually spawned domains *)
  max_domains : int;  (** largest pool size used so far *)
  cache_hits : int;  (** persistent-cache lookups served from disk *)
  cache_misses : int;  (** persistent-cache lookups that recomputed *)
  tasks_retried : int;  (** retry attempts made on transient failures *)
  tasks_failed : int;  (** tasks that failed after their retry budget *)
}

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted: [REPRO_JOBS] if set to a
    positive integer, otherwise {!Domain.recommended_domain_count}.

    Every pool size — from the environment, {!set_default_jobs} or
    [?jobs] — is clamped to [1..64]: beyond ~64 domains the OCaml 5
    runtime's stop-the-world sections dominate and no suite has more
    tasks than that anyway. A malformed or non-positive [REPRO_JOBS]
    (e.g. ["O8"], ["0"], ["-3"]) is diagnosed once on stderr and the
    default is used; it is never silently treated as valid. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for the rest of the process (clamped to
    [1..64]); used by the [-j] flags of the CLI and bench harness. *)

(** {1 Supervision} *)

type policy = {
  retries : int;  (** extra attempts for [Transient]-classed failures *)
  backoff_ms : float;  (** backoff base: base, 2x, 4x ... capped at 100ms *)
}

val default_policy : unit -> policy
(** The process-wide policy used when [?policy] is omitted:
    [retries] from {!set_retries} (default 2), 1ms backoff base. *)

val retries : unit -> int
val set_retries : int -> unit
(** Clamped to [0..10]; wired to the [--retry] flag of the CLI and
    bench harness. *)

(** {1 Mapping} *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] computed by up to [jobs]
    domains (including the calling one). Order is preserved. With
    [jobs <= 1] — or a list shorter than two elements — no domain is
    spawned and the work runs inline.

    Transient failures ({!Failure.classify}) are retried under
    {!default_policy} before counting as failures. If a task still
    fails, every worker stops taking new tasks, all domains are
    joined, and the first (lowest-index) original exception is
    re-raised in the caller. *)

val map_result :
  ?jobs:int ->
  ?policy:policy ->
  ?fail_fast:bool ->
  ('a -> 'b) ->
  'a list ->
  ('b, Failure.t) result list
(** Like {!map} but failures become data: each task yields [Ok] or
    the structured {!Failure.t} it died with (after the retry
    budget). With [fail_fast] (default [false]) workers stop taking
    new tasks after the first failure and unattempted tasks yield a
    [Transient] "abandoned" failure; otherwise every task runs to
    completion regardless of siblings. Fatal runtime conditions
    ([Out_of_memory], [Stack_overflow], [Sys.Break]) are never
    converted to values — they re-raise after the pool is joined. *)

val stats : unit -> stats
val reset_stats : unit -> unit

(**/**)

val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit
(** Called by {!Cache}; exposed so the persistent cache and the pool
    report through one counter block. *)
