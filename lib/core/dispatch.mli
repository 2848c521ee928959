(** Multi-process sweep execution: a lease-based coordinator sharding
    an experiment's task space across local worker processes.

    The coordinator enumerates {!Experiment.tasks_for} work units and
    hands them out over length-framed JSON ({!Frame}, the same RSRV1
    layer and failure taxonomy as the {!Server} daemon) to a pool of
    [repro_cli worker] subprocesses, each connected by a socketpair
    passed at spawn as the child's stdin/stdout. Workers share the
    coordinator's on-disk {!Cache}, so their artifacts never cross the
    channel: they execute tasks through the ordinary
    {!Experiment.run_task} machinery, and the coordinator re-renders
    every table from its cache afterwards, which is what makes a run
    over any pool size byte-identical to an undisturbed in-process
    run.

    Reliability model:

    - {b Leases.} A busy worker holds one task and a monotonic-clock
      deadline ([REPRO_LEASE_MS], default 5 min). A worker that dies
      (EOF on its channel) or wedges past its deadline (SIGKILLed
      first, so it can never race its successor) has its task
      re-issued to the next idle worker.
    - {b At-least-once.} Tasks are idempotent cache stores, and the
      cache is the only record of finished work: a coordinator killed
      mid-sweep loses only time, since the rerun finds the stored
      artifacts as cache hits. Duplicate or unsolicited
      acknowledgements within a sweep are counted and dropped, never
      double-counted.
    - {b Fallback.} If every worker is gone (spawn failures included)
      the coordinator warns once and returns; the caller's ordinary
      in-process render computes the remaining cache misses at its
      own [-j]. A sweep degrades in wall time, never in output.

    Fault-torture runs drive the [dispatch.spawn], [dispatch.lease]
    and [dispatch.result] sites of {!Repro_util.Faults}; all of them
    degrade to re-issue or fallback. Telemetry counters
    ([dispatch.leases], [dispatch.completed], [dispatch.reissued],
    ...) record traffic, and each worker ships its own counters home
    in its final frame. *)

(** {1 Configuration} *)

val set_workers : int option -> unit
(** Override the worker count (clamped to [0..64]); [None] restores
    the [REPRO_WORKERS] environment default. [0] disables dispatch
    entirely (pure in-process execution). *)

val workers : unit -> int
(** Effective worker count: the override if set, else
    [REPRO_WORKERS] (clamped [0..64], warn-once), else [0]. *)

(** {1 Coordinator} *)

val prefetch : ?scale:float -> Experiment.id -> unit
(** Shard [Experiment.tasks_for id] across the worker pool so that
    the subsequent {!Experiment.run} is (mostly) cache hits. A no-op
    when {!workers} is [0], when the experiment decomposes to no
    tasks, or — with a warn-once — when the persistent {!Cache} is
    disabled (workers could not hand results back without it).
    [scale] defaults to [1.0]. The pool is spawned lazily on first
    use and reused across calls while it still has exactly
    {!workers} live members over the current cache directory;
    otherwise it is replaced whole. Never raises on worker failure. *)

val prewarm : unit -> unit
(** Spawn the {!workers}-sized pool eagerly (no tasks dispatched); a
    no-op when {!workers} is [0]. Used by tests and benches that want
    spawn cost out of the timed region. *)

val shutdown : unit -> unit
(** Tear down the pool: each live worker is sent an exit frame and
    given a short grace period to ship its telemetry counters home
    (absorbed into this process when telemetry is enabled), then
    SIGKILLed if unresponsive. Registered with [at_exit] on first
    pool creation; safe to call repeatedly or with no pool. *)

val pids : unit -> int list
(** Pids of the currently live pool members (empty when no pool).
    Exposed for the kill-torture tests and the bench's chaos probe. *)

(** {1 Worker} *)

val worker_main : unit -> 'a
(** Run the worker protocol loop over stdin/stdout until the
    coordinator sends an exit frame or the channel dies; never
    returns. Invoked by the [repro_cli worker] subcommand. *)

val maybe_worker : unit -> unit
(** If [REPRO_DISPATCH_WORKER=1] is in the environment, become a
    worker (never returns); else do nothing. Called first thing in
    [main] by every executable whose binary may be re-exec'd as a
    worker — notably the test binaries, which spawn themselves. *)

(** {1 Introspection} *)

type stats = {
  tasks : int;  (** tasks enumerated for dispatch *)
  completed : int;  (** tasks acknowledged by a worker *)
  fallback : int;  (** tasks left to the in-process render (pool died) *)
  reissued : int;  (** leases re-issued after a worker was lost *)
  expired : int;  (** leases that hit their monotonic deadline *)
  worker_deaths : int;  (** workers lost (EOF, torn frame, expiry) *)
  dup_results : int;  (** acknowledgements dropped as duplicates *)
  spawn_failures : int;  (** workers that failed to start *)
}

val stats : unit -> stats
(** Cumulative counts since process start (or {!reset_stats}). *)

val reset_stats : unit -> unit
