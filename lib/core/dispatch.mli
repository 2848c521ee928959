(** Multi-process sweep execution: a lease-based coordinator sharding
    an experiment's task space across worker processes.

    The coordinator enumerates {!Experiment.tasks_for} work units and
    hands them out over length-framed JSON ({!Frame}, the same RSRV1
    layer and failure taxonomy as the {!Server} daemon) to a pool
    mixing two member kinds:

    - {b Local} [repro_cli worker] subprocesses, each connected by a
      socketpair passed at spawn as the child's stdin/stdout. They
      share the coordinator's on-disk {!Cache}, so their artifacts
      never cross the wire.
    - {b Remote} workers ([repro_cli worker --connect host:port])
      dialing the coordinator's TCP listener ({!set_listen} /
      [REPRO_LISTEN]). Registration is a handshake — protocol
      revision, {!Cache.version}, and {!catalog_fingerprint} must
      all match, or the dial is refused with a typed reason in one
      round trip. Remote workers have no shared filesystem: each
      task's artifacts ship home as raw encoded cache entries whose
      header/trailer digests the coordinator re-verifies before an
      atomic install ({!Cache.install_raw}); a corrupt payload is
      quarantined, counted, and the lease re-issued.

    Either way workers execute tasks through the ordinary
    {!Experiment.run_task} machinery and the coordinator re-renders
    every table from its cache afterwards, which is what makes a run
    over any pool shape byte-identical to an undisturbed in-process
    run.

    Reliability model:

    - {b Leases.} A busy worker holds up to {!lease_batch} tasks and
      a monotonic-clock deadline ([REPRO_LEASE_MS], default 5 min).
      A worker that dies (EOF on its channel) or wedges past its
      deadline (a local worker is SIGKILLed first, so it can never
      race its successor; a remote worker is marked suspect and its
      late acknowledgements drop as duplicates) has its tasks
      re-issued to the next idle worker.
    - {b Heartbeats.} Idle remote connections are heartbeated
      ([REPRO_HB_MS], default 1 s); three missed intervals sever the
      connection. A severed worker reconnects with jittered
      exponential backoff ({!Repro_util.Backoff}) and re-registers
      under a fresh id.
    - {b Exactly-once resume.} Completions are recorded through
      {!Journal} (one record per {!Experiment.task_id}, under the
      journal's cross-process POSIX lock), so a coordinator killed
      mid-sweep skips already-completed tasks on restart; duplicate
      or unsolicited acknowledgements are counted and dropped, never
      double-counted.
    - {b Drain.} SIGTERM (via {!install_sigterm_drain}) stops lease
      issue; in-flight leases finish or expire and the journal keeps
      its records, so the next coordinator resumes at the cut.
    - {b Fallback.} If every worker is gone (spawn failures and dead
      remote fleets included, the latter after a bounded
      registration grace, [REPRO_REMOTE_GRACE_MS]) the coordinator
      warns once and finishes the queue in-process; a sweep degrades
      in wall time, never in output.

    Fault-torture runs drive the [dispatch.spawn], [dispatch.lease],
    [dispatch.result], [dispatch.connect], [dispatch.heartbeat] and
    [dispatch.payload] sites of {!Repro_util.Faults}; all of them
    degrade to re-issue, reconnect, or fallback. Telemetry counters
    ([dispatch.leases], [dispatch.completed], [dispatch.reissued],
    ...) record traffic, and each worker ships its own counters home
    in its final frame. *)

(** {1 Configuration} *)

val set_workers : int option -> unit
(** Override the worker count (clamped to [0..64]); [None] restores
    the [REPRO_WORKERS] environment default. [0] disables dispatch
    entirely (pure in-process execution) unless a listen address
    makes the pool remote-capable. *)

val workers : unit -> int
(** Effective worker count: the override if set, else
    [REPRO_WORKERS] (clamped [0..64], warn-once), else [0]. *)

val set_lease_batch : int option -> unit
(** Override the tasks handed out per lease round trip (clamped to
    [1..64]); [None] restores the [REPRO_LEASE_BATCH] environment
    default of [1]. Batched task frames queue in the channel and the
    worker drains them in order; acknowledgements stay head-of-queue,
    so batching changes round trips, never the ack discipline. *)

val lease_batch : unit -> int
(** Effective lease batch size. *)

val set_listen : string option -> unit
(** Set the TCP listen address for remote worker registrations
    ("host:port"; ":port" binds every interface; port [0] lets the
    kernel pick — read it back with {!listen_port}). [None] (the
    default unless [REPRO_LISTEN] is set) disables the remote
    transport. Takes effect at the next pool (re)creation. *)

val listen_port : unit -> int option
(** The port the current pool's listener is bound to, if any. *)

(** {1 Drain} *)

val request_drain : unit -> unit
(** Enter drain mode: stop issuing leases; in-flight leases finish or
    expire, the sweep loop returns with the remainder pending, and
    the journal keeps its records so a restart resumes exactly where
    the drain cut. Async-signal-safe (a single atomic store). *)

val draining : unit -> bool
val set_draining : bool -> unit
(** Direct access to the drain flag; [set_draining false] re-arms a
    coordinator after a drain (used by tests). *)

val install_sigterm_drain : unit -> unit
(** Route SIGTERM to {!request_drain}: the conventional graceful-stop
    signal drains instead of killing mid-sweep. Installed by
    [repro_cli] when a listen address is configured. *)

(** {1 Coordinator} *)

val prefetch : ?scale:float -> Experiment.id -> unit
(** Shard [Experiment.tasks_for id] across the worker pool so that
    the subsequent {!Experiment.run} is (mostly) cache hits. A no-op
    when {!workers} is [0], when the experiment decomposes to no
    tasks, or — with a warn-once — when the persistent {!Cache} is
    disabled (workers could not ship results back without it).
    [scale] defaults to [1.0]. The pool is spawned lazily on first
    use and reused across calls; it is respawned if the cache
    directory has changed since. Never raises on worker failure. *)

val prewarm : unit -> unit
(** Spawn the worker pool eagerly (no tasks dispatched). Used by
    tests and benches that want spawn cost out of the timed region. *)

val shutdown : unit -> unit
(** Tear down the pool: each live worker is sent an exit frame and
    given a short grace period to ship its telemetry counters home
    (absorbed into this process when telemetry is enabled), then
    SIGKILLed if unresponsive. Registered with [at_exit] on first
    pool creation; safe to call repeatedly or with no pool. *)

val pids : unit -> int list
(** Pids of the currently live {e local} pool members (empty when no
    pool; remote members are other machines' processes). Exposed for
    the kill-torture tests and the bench's chaos probe. *)

val poll_registrations : unit -> unit
(** Accept and handshake every remote registration currently pending
    on the pool's listener, without blocking. The sweep loop does
    this automatically whenever the listener polls readable; tests
    and bench probes call it directly to register a known worker
    fleet before the timed region. No-op without a listener. *)

val spawn_remote_worker : cache_dir:string -> unit -> int option
(** Spawn a remote-worker helper process dialing this coordinator's
    own listener over loopback, with [cache_dir] as its private cache
    (artifacts must cross the wire, not the filesystem). Returns the
    pid, or [None] without a listener or on spawn failure. The helper
    is killed and reaped by {!shutdown}. Loopback tests and bench
    probes only; real deployments run [repro_cli worker --connect]. *)

(** {1 Worker} *)

val worker_main : unit -> 'a
(** Run the worker protocol loop over stdin/stdout until the
    coordinator sends an exit frame or the channel dies; never
    returns. Invoked by the [repro_cli worker] subcommand. *)

val remote_worker_main : string -> 'a
(** Run the remote (TCP) worker loop against a coordinator at
    ["host:port"] (host defaults to loopback): dial with jittered
    exponential backoff, register (protocol version, cache version,
    workload-catalogue fingerprint — a typed rejection is fatal, exit
    4), then serve leases, shipping each task's artifacts back as
    digest-verified frames. On any channel failure it reconnects and
    re-registers as a fresh worker. [REPRO_CONNECT_ATTEMPTS] bounds
    consecutive dial failures (0 = unlimited). Never returns. Invoked
    by [repro_cli worker --connect]. *)

val maybe_worker : unit -> unit
(** If [REPRO_DISPATCH_WORKER=1] is in the environment, become a
    worker — remote when [REPRO_CONNECT] is also set, stdio
    otherwise (never returns); else do nothing. Called first thing
    in [main] by every executable whose binary may be re-exec'd as a
    worker — notably the test binaries, which spawn themselves. *)

val proto_version : int
(** Wire protocol revision carried in the registration hello;
    exposed so tests can forge matching and mismatching hellos. *)

val catalog_fingerprint : unit -> string
(** Digest of the full workload catalogue; a worker whose catalogue
    differs would compute different artifacts under the same task
    ids, so registration requires an exact match. *)

(** {1 Introspection} *)

type stats = {
  tasks : int;  (** tasks enumerated for dispatch (journal skips included) *)
  completed : int;  (** tasks acknowledged by a worker *)
  fallback : int;  (** tasks finished in-process after the pool died *)
  skipped_journal : int;  (** tasks skipped by exactly-once journal replay *)
  reissued : int;  (** leases re-issued after a worker was lost *)
  expired : int;  (** leases that hit their monotonic deadline *)
  worker_deaths : int;  (** workers lost (EOF, torn frame, expiry) *)
  dup_results : int;  (** acknowledgements dropped as duplicates *)
  spawn_failures : int;  (** workers that failed to start *)
  remote_workers : int;  (** remote registrations accepted (reconnects included) *)
  handshake_rejects : int;  (** registrations refused with a typed reason *)
  payload_rejects : int;  (** result frames whose artifacts failed verification *)
  hb_timeouts : int;  (** idle remote workers severed for missed heartbeats *)
  reconnects : int;  (** registrations that declared themselves reconnects *)
  wire_artifacts : int;  (** artifacts shipped over TCP and installed *)
}

val stats : unit -> stats
(** Cumulative counts since process start (or {!reset_stats}). *)

val reset_stats : unit -> unit

val journal_name : Experiment.id -> string
(** Name of the dispatch journal for an experiment (one journal per
    experiment, under [<cache dir>/journal/]). Exposed so tests can
    pre-seed or inspect resume state. *)

val journal_fingerprint : scale:float -> Experiment.id -> string
(** Fingerprint tying a dispatch journal to one (experiment, scale,
    cache version, task list):
    any mismatch discards the journal rather than resuming the wrong
    run's completions. *)
