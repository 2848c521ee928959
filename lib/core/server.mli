(** Characterization as a service: a long-lived socket daemon that
    serves the experiment registry over a length-framed JSON protocol.

    The daemon listens on one Unix-domain socket and answers
    concurrent characterization requests out of the same process-wide
    hot store the one-shot CLI uses — the {!Experiment} memo tables,
    the packed-trace LRU and the disk {!Cache} — so a table computed
    for one client is free for every later client at the same
    [(scale, config)]. Responses are byte-identical to
    {!Report.run_to_string}: the daemon renders through the same code
    path, it only changes who pays for the trace.

    {2 Wire protocol}

    Every message (both directions) is one {e frame}:

    {v RSRV1 <decimal payload length>\n<payload bytes> v}

    The payload is a JSON document ({!Repro_util.Json}). Requests are
    objects with an ["op"] field — [ping], [experiment] (with ["id"]),
    [report], [stats], [reload], [shutdown] — and an optional ["seq"]
    field echoed verbatim in the response, so a pipelining client can
    match responses to requests. Responses carry ["ok"] (boolean);
    failures carry ["error"]. A frame whose header is not literally
    [RSRV1 <int>\n], or whose declared length exceeds {!Frame.max_frame},
    is answered with a best-effort error frame and the connection is
    closed — after garbage there is no resynchronization point — but
    the server itself keeps serving other clients. A client that dies
    mid-frame (torn write, [kill -9]) only loses its own connection.

    {2 Zero-downtime reload}

    A [reload] request — or, in the CLI wrapper, [SIGHUP] — swaps the
    active configuration (scale, jobs, fault spec)
    atomically with respect to request
    dispatch: the reloader waits for in-flight requests to drain
    (new arrivals park at the gate), applies the new configuration to
    the process-wide toggles, bumps the {e generation} counter, and
    releases the gate. No in-flight request is dropped and no request
    ever observes a half-applied configuration. The {e update lag} —
    wall time from reload acceptance to the completion of the first
    request served under the new generation, quiesce drain included —
    is exported through the [stats] op as [update_lag_ms]. *)

(** {1 Frames} *)

module Frame = Frame
(** The RSRV1 framing layer — see {!Frame}. Aliased here because the
    daemon's wire protocol is defined in its terms and clients/tests
    reach it as [Server.Frame]. *)

(** {1 Configuration} *)

type config = {
  scale : float;  (** instruction-budget multiplier for every run *)
  jobs : int;  (** {!Engine} pool size per request (clamped 1..64) *)
  sample : float option;
      (** must be [None]: representative-region sampling was removed *)
  faults : string option;  (** {!Repro_util.Faults.configure} spec *)
  packed : bool;
      (** must be [true]: the streaming path was removed; every
          measured figure replays the packed capture *)
  fused : bool;
      (** must be [true]: the unfused sweep path was removed *)
}
(** [sample], [packed] and [fused] survive only so that callers
    building the record literally keep compiling. {!start} and
    {!reload} raise [Invalid_argument] naming the removed feature when
    [sample] is [Some _], [packed] is [false] or [fused] is [false]; a
    [reload] request carrying any of them is answered [ok:false]. *)

val current_config : unit -> config
(** Snapshot of the process-wide toggles as they are now — what a
    freshly started daemon serves under when [?config] is omitted.
    Honours flags applied before [start] (e.g. the CLI's engine
    flags). *)

val env_config : unit -> config
(** Rebuild the configuration from the current environment
    ([REPRO_SCALE], [REPRO_JOBS], [REPRO_FAULTS]),
    through the audited
    {!Repro_util.Env} readers. This is the [SIGHUP] reload source. *)

(** {1 Lifecycle} *)

type t

val start : ?config:config -> ?socket:string -> ?workers:int -> unit -> t
(** Bind the socket, apply [config] (default {!current_config}) to
    the process-wide toggles, and spawn [workers] (default 4, clamped
    1..16) accept/serve domains. [socket] (default ["_serve.sock"]) is
    the Unix-domain socket path; a stale file there is replaced.
    [SIGPIPE] is ignored process-wide: a dying client must be an
    [EPIPE] on its own connection, never a process kill. Each worker serves one connection at a time, so
    [workers] bounds concurrently served clients; further connections
    queue in the listen backlog. Raises [Invalid_argument], before
    binding anything, for a [config] naming a removed feature (see
    {!config}). *)

val sock_path : t -> string

val reload : t -> config -> int
(** Quiesce in-flight requests, apply the configuration, bump and
    return the generation. Serialized with concurrent reloads. Raises
    [Invalid_argument] for a configuration naming a removed feature
    (see {!config}). *)

val config : t -> config
val generation : t -> int

val update_lag_ms : t -> float option
(** Wall-clock milliseconds from the last accepted reload (or
    startup) to the first request completed under that generation;
    [None] until a request completes. *)

val request_stop : t -> unit
(** Ask the workers to wind down (idempotent, signal-safe: just an
    atomic store). In-flight requests finish; idle workers notice
    within ~50ms. *)

val stopping : t -> bool

val wait : ?poll_s:float -> ?on_tick:(unit -> unit) -> t -> unit
(** Block until {!request_stop} (or a [shutdown] op) fires, calling
    [on_tick] every [poll_s] (default 0.2s) — the CLI polls its
    [SIGHUP] flag there. *)

val stop : t -> unit
(** {!request_stop}, join the worker domains, absorb their telemetry
    buffers, close the listener and unlink the socket file.
    Idempotent. *)

(** {1 Client} *)

module Client : sig
  type conn

  val connect : ?retry_for:float -> socket:string -> unit -> conn
  (** Connect to the daemon listening on [socket]. [retry_for] (default
      [0.]) keeps retrying a refused or absent socket for that many
      seconds — for callers racing a daemon that is still binding in
      another process. Retries pace themselves through {!Repro_util.Backoff}'s jittered
      exponential schedule. *)

  val fd : conn -> Unix.file_descr
  (** The raw socket — exposed so protocol tests can write torn or
      garbage bytes past the framing layer. *)

  val request : conn -> Repro_util.Json.t -> (Repro_util.Json.t, string) result
  (** One framed request, one framed response. *)

  val request_raw : conn -> string -> (string, Frame.error) result
  (** Like {!request} but raw payload bytes both ways. *)

  val close : conn -> unit
end
