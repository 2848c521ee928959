(** Jittered exponential backoff for reconnect loops.

    Used by the {!Repro_core.Server} client's [retry_for] connect
    loop ("dial until the peer is there"). Delays start at [base_ms],
    double per attempt, saturate at [max_ms], and carry a
    deterministic seed-driven jitter factor in [[1-jitter, 1+jitter]]
    — distinct seeds decorrelate concurrent clients (no reconnect
    stampede on a restarted daemon), while a fixed seed replays the
    exact delay sequence for tests. *)

type t

val create :
  ?base_ms:float -> ?max_ms:float -> ?jitter:float -> ?seed:int -> unit -> t
(** Defaults: [base_ms = 50.], [max_ms = 5000.], [jitter = 0.5],
    [seed = 0]. [jitter] is clamped to [0..1]; [max_ms] is raised to
    at least [base_ms]. *)

val delay_ms : t -> float
(** Next delay in milliseconds, consuming one attempt. Always within
    [[base_ms, max_ms]]; deterministic for a given (seed, attempt). *)

val sleep : t -> unit
(** [Unix.sleepf] for {!delay_ms}. *)

val reset : t -> unit
(** Snap back to the first attempt — call after a successful
    connection so the next failure starts from [base_ms] again. *)

val attempts : t -> int
(** Attempts consumed since creation or the last {!reset}. *)
