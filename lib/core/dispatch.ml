module J = Repro_util.Json
module Env = Repro_util.Env
module Faults = Repro_util.Faults
module Telemetry = Repro_util.Telemetry

(* Coordinator/worker sharding of an experiment's task space across
   OS processes.

   The shape that makes this safe is that nothing of value crosses
   the wire: a worker's only output is the artifacts it stores in the
   shared on-disk {!Cache}, and the coordinator re-renders every
   table from that cache after the sweep. Result frames are pure
   acknowledgements. So a lost worker costs wall time, never
   correctness — the lease is re-issued, the task recomputes
   (deterministically, into the same cache key), and the rendered
   bytes cannot tell the difference.

   Leases: each busy worker holds exactly one task and a monotonic
   deadline ([REPRO_LEASE_MS], default 5 minutes — a generous safety
   net; the fast path for worker death is EOF on its socketpair).
   An expired worker is SIGKILLed *before* its task is re-issued, so
   a wedged-but-alive worker can never race a successor into a
   half-written ack (cache stores themselves are atomic either way).

   Exactly-once resume: completions are recorded through {!Journal}
   (one record per task id, under the journal's own cross-process
   lock), so a coordinator killed mid-sweep skips completed tasks on
   restart; duplicate acks are counted and dropped. *)

(* ------------------------------------------------------------------ *)
(* Configuration *)

let env_marker = "REPRO_DISPATCH_WORKER"

let override = ref None
let set_workers n = override := n

let workers () =
  match !override with
  | Some n -> max 0 (min 64 n)
  | None -> (
      match Env.int_clamped ~name:"REPRO_WORKERS" ~min:0 ~max:64 () with
      | Some n -> n
      | None -> 0)

let lease_ms () =
  match Env.int_clamped ~name:"REPRO_LEASE_MS" ~min:50 ~max:3_600_000 () with
  | Some n -> n
  | None -> 300_000

(* Tasks handed out per lease round trip. The frames of a batch queue
   in the channel and the worker drains them in order, so batching
   amortizes the coordinator's select wakeups without changing the
   acknowledgement discipline: acks still arrive head-of-queue. *)
let batch_override = ref None
let set_lease_batch n = batch_override := n

let lease_batch () =
  match !batch_override with
  | Some n -> max 1 (min 64 n)
  | None -> (
      match Env.int_clamped ~name:"REPRO_LEASE_BATCH" ~min:1 ~max:64 () with
      | Some n -> n
      | None -> 1)

let hb_ms () =
  match Env.int_clamped ~name:"REPRO_HB_MS" ~min:50 ~max:60_000 () with
  | Some n -> n
  | None -> 1_000

(* How long an otherwise-empty pool with a listener waits for a
   (re)connection before giving up on remote workers entirely. *)
let remote_grace_ms () =
  match
    Env.int_clamped ~name:"REPRO_REMOTE_GRACE_MS" ~min:0 ~max:600_000 ()
  with
  | Some n -> n
  | None -> 3_000

(* TCP listen spec ("host:port", ":port" for any-interface, port 0 for
   kernel-picked). [None] disables the remote transport. *)
let listen_ref =
  ref
    (match Sys.getenv_opt "REPRO_LISTEN" with
    | Some s when s <> "" -> Some s
    | Some _ | None -> None)

let set_listen s = listen_ref := s
let listen_spec () = !listen_ref
let remote_enabled () = listen_spec () <> None

(* Registration handshake identity. A worker from a different build
   (protocol rev, cache format, or workload catalogue) must be turned
   away with a typed reason at registration, not discovered later as
   silently divergent artifacts. Revision 2: task frames no longer
   carry the sampling and fused-kernel toggles. *)
let proto_version = 2

let catalog_fingerprint () =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.map Repro_workload.Profile_io.to_string
             Repro_workload.Suites.all)))

(* ------------------------------------------------------------------ *)
(* Drain *)

(* Set from the SIGTERM handler: stop issuing leases, let in-flight
   work finish (or expire), keep the journal so a restart resumes.
   Atomic because signal handlers run between any two instructions. *)
let draining_flag = Atomic.make false
let draining () = Atomic.get draining_flag
let set_draining b = Atomic.set draining_flag b
let request_drain () = Atomic.set draining_flag true

let install_sigterm_drain () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_drain ()))

(* ------------------------------------------------------------------ *)
(* Statistics *)

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

type mstats = {
  mutable m_tasks : int;
  mutable m_completed : int;
  mutable m_fallback : int;
  mutable m_skipped : int;
  mutable m_reissued : int;
  mutable m_expired : int;
  mutable m_deaths : int;
  mutable m_dups : int;
  mutable m_spawn_failures : int;
  mutable m_remote_workers : int;
  mutable m_handshake_rejects : int;
  mutable m_payload_rejects : int;
  mutable m_hb_timeouts : int;
  mutable m_reconnects : int;
  mutable m_wire_artifacts : int;
}

let g =
  { m_tasks = 0; m_completed = 0; m_fallback = 0; m_skipped = 0;
    m_reissued = 0; m_expired = 0; m_deaths = 0; m_dups = 0;
    m_spawn_failures = 0; m_remote_workers = 0; m_handshake_rejects = 0;
    m_payload_rejects = 0; m_hb_timeouts = 0; m_reconnects = 0;
    m_wire_artifacts = 0 }

let stats () =
  { tasks = g.m_tasks; completed = g.m_completed; fallback = g.m_fallback;
    skipped_journal = g.m_skipped; reissued = g.m_reissued;
    expired = g.m_expired; worker_deaths = g.m_deaths;
    dup_results = g.m_dups; spawn_failures = g.m_spawn_failures;
    remote_workers = g.m_remote_workers;
    handshake_rejects = g.m_handshake_rejects;
    payload_rejects = g.m_payload_rejects; hb_timeouts = g.m_hb_timeouts;
    reconnects = g.m_reconnects; wire_artifacts = g.m_wire_artifacts }

let reset_stats () =
  g.m_tasks <- 0;
  g.m_completed <- 0;
  g.m_fallback <- 0;
  g.m_skipped <- 0;
  g.m_reissued <- 0;
  g.m_expired <- 0;
  g.m_deaths <- 0;
  g.m_dups <- 0;
  g.m_spawn_failures <- 0;
  g.m_remote_workers <- 0;
  g.m_handshake_rejects <- 0;
  g.m_payload_rejects <- 0;
  g.m_hb_timeouts <- 0;
  g.m_reconnects <- 0;
  g.m_wire_artifacts <- 0

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* Counters a worker reports home in its final frame. A fixed
   whitelist keeps the frame small and the coordinator's absorption
   deterministic; anything a worker counts outside this list is
   visible in its own stderr telemetry report instead. *)
let exported_counters =
  [ "experiment.sim_insts"; "engine.tasks_ok"; "engine.tasks_retried";
    "engine.tasks_failed"; "engine.tasks_timed_out"; "engine.busy_ns";
    "cache.hits"; "cache.misses"; "cache.read_bytes"; "cache.write_bytes";
    "cache.quarantined"; "faults.injected"; "experiment.holes";
    "dispatch.worker_tasks" ]

let bye_payload () =
  let counters =
    List.filter_map
      (fun name ->
        match Telemetry.counter name with
        | 0 -> None
        | v -> Some (name, J.Num (float_of_int v)))
      exported_counters
  in
  J.to_string (J.Obj [ ("op", J.Str "bye"); ("counters", J.Obj counters) ])

(* Execute one task frame through the ordinary Experiment machinery.
   The frame carries the coordinator's packed toggle, so a worker always
   computes under exactly the configuration the coordinator will
   render under. Shared by the socketpair (local) and TCP (remote)
   worker loops. *)
let run_task_frame msg =
  let str k =
    match J.member k msg with Some (J.Str s) -> Some s | _ -> None
  in
  let kind = Option.value ~default:"" (str "kind") in
  let bench = Option.value ~default:"" (str "bench") in
  let scale =
    match Option.bind (J.member "scale" msg) J.number with
    | Some f -> f
    | None -> 1.0
  in
  Experiment.set_packed
    (match J.member "packed" msg with Some (J.Bool b) -> b | _ -> true);
  let task = { Experiment.t_kind = kind; t_bench = bench } in
  let ok, err =
    match Experiment.run_task ~scale task with
    | true -> (true, None)
    | false -> (false, Some "unknown task")
    | exception e -> (false, Some (Printexc.to_string e))
  in
  Telemetry.incr "dispatch.worker_tasks";
  (task, ok, err)

let done_payload task ok err ~artifacts =
  let fields =
    [ ("op", J.Str "done"); ("task", J.Str (Experiment.task_id task));
      ("ok", J.Bool ok);
      ("artifacts", J.Num (float_of_int artifacts)) ]
    @ (match err with Some e -> [ ("error", J.Str e) ] | None -> [])
  in
  J.to_string (J.Obj fields)

let worker_main () =
  (* stdin/stdout are the coordinator channel (the socketpair end
     dup'd over both at spawn); stderr stays inherited for warnings.
     A dead coordinator must be an EPIPE on a write, not a process
     kill. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd_in = Unix.stdin and fd_out = Unix.stdout in
  let rec loop () =
    match Frame.read fd_in with
    | Error _ -> exit 0 (* coordinator gone: die quietly *)
    | Ok payload -> (
        match J.of_string payload with
        | Error _ -> exit 2
        | Ok msg -> (
            match J.member "op" msg with
            | Some (J.Str "task") ->
                let task, ok, err = run_task_frame msg in
                (* The canonical exactly-once hazard: the artifact is
                   in the cache but the ack never leaves. The lease
                   expires or the EOF lands, the task re-issues, and
                   the successor's recompute is a pure cache hit. *)
                if Faults.fires "dispatch.result" then exit 3;
                (try
                   ignore
                     (Frame.write fd_out (done_payload task ok err ~artifacts:0))
                 with Unix.Unix_error _ -> exit 0);
                loop ()
            | Some (J.Str "hb") ->
                (* Local workers share a kernel with the coordinator;
                   heartbeats are a remote-transport concern, but
                   answering keeps the protocol uniform. *)
                (try
                   ignore
                     (Frame.write fd_out
                        (J.to_string
                           (J.Obj [ ("op", J.Str "hb"); ("echo", J.Bool true) ])))
                 with Unix.Unix_error _ -> exit 0);
                loop ()
            | Some (J.Str "exit") ->
                (try ignore (Frame.write fd_out (bye_payload ()))
                 with Unix.Unix_error _ -> ());
                exit 0
            | _ -> exit 2))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Remote worker (TCP) *)

(* Artifact frames are distinguished from JSON control frames by this
   prefix: [RART1 <entry basename>\n<raw encoded cache entry>]. The
   encoded bytes carry their own header digest and trailer, so the
   coordinator verifies end-to-end before installing. *)
let artifact_magic = "RART1 "

let split_host_port spec =
  match String.rindex_opt spec ':' with
  | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | None -> ("", spec)

let resolve_host ~default host =
  if host = "" then Some default
  else
    match Unix.inet_addr_of_string host with
    | a -> Some a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> None
        | h -> Some h.Unix.h_addr_list.(0)
        | exception Not_found -> None)

let parse_addr ~default_host spec =
  let host, port_s = split_host_port spec in
  match int_of_string_opt (String.trim port_s) with
  | Some p when p >= 0 && p < 65536 ->
      Option.map (fun a -> (a, p)) (resolve_host ~default:default_host host)
  | _ -> None

let hello_payload ~reconnect =
  J.to_string
    (J.Obj
       [ ("op", J.Str "hello");
         ("proto", J.Num (float_of_int proto_version));
         ("cache", J.Str Cache.version);
         ("fingerprint", J.Str (catalog_fingerprint ()));
         ("reconnect", J.Bool reconnect) ])

(* Ship the artifacts a task touched, as raw verified-encodable cache
   entries. Returns [Some shipped] or [None] if the channel died. *)
let ship_artifacts fd names =
  let shipped = ref 0 in
  let ok =
    List.for_all
      (fun name ->
        match Cache.read_raw name with
        | None ->
            (* Entry vanished under us (a concurrent clear): the
               coordinator's recompute-on-miss covers it. *)
            true
        | Some bytes ->
            let bytes =
              if Faults.fires "dispatch.payload" && String.length bytes > 0
              then begin
                (* Simulated wire corruption: one flipped bit mid-
                   payload, exactly what the digest must catch. *)
                Telemetry.incr "dispatch.payload_faults";
                let b = Bytes.of_string bytes in
                let i = String.length bytes / 2 in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
                Bytes.unsafe_to_string b
              end
              else bytes
            in
            (match Frame.write fd (artifact_magic ^ name ^ "\n" ^ bytes) with
            | _ ->
                incr shipped;
                true
            | exception Unix.Unix_error _ -> false))
      names
  in
  if ok then Some !shipped else None

(* The TCP worker loop: dial, register, serve leases; on any channel
   failure, reconnect with jittered exponential backoff and a fresh
   registration. A typed rejection is fatal (the mismatch will not
   heal); a full dial-failure budget ([REPRO_CONNECT_ATTEMPTS], 0 =
   unlimited) exits quietly so orphaned helpers cannot spin forever. *)
let remote_worker_main addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let target =
    match parse_addr ~default_host:Unix.inet_addr_loopback addr with
    | Some t -> t
    | None ->
        Printf.eprintf "frontend-repro: worker: bad --connect address %S\n%!"
          addr;
        exit 2
  in
  let attempts_cap =
    match
      Env.int_clamped ~name:"REPRO_CONNECT_ATTEMPTS" ~min:0 ~max:1_000_000 ()
    with
    | Some n -> n
    | None -> 0
  in
  let backoff =
    Repro_util.Backoff.create ~base_ms:50.0 ~max_ms:2_000.0
      ~seed:(Unix.getpid ()) ()
  in
  let failures = ref 0 in
  let note_failure () =
    incr failures;
    if attempts_cap > 0 && !failures >= attempts_cap then begin
      Printf.eprintf
        "frontend-repro: worker: giving up after %d failed connection \
         attempts\n\
         %!"
        !failures;
      exit 0
    end;
    Repro_util.Backoff.sleep backoff
  in
  let dial () =
    if Faults.fires "dispatch.connect" then begin
      Telemetry.incr "dispatch.connect_faults";
      None
    end
    else
      let host, port = target in
      match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> None
      | fd -> (
          match Unix.connect fd (Unix.ADDR_INET (host, port)) with
          | () ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              Some fd
          | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              None)
  in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let handshake fd ~reconnect =
    match Frame.write fd (hello_payload ~reconnect) with
    | exception Unix.Unix_error _ -> `Retry
    | _ -> (
        match Frame.read_timeout ~timeout_s:5.0 fd with
        | Error _ -> `Retry
        | Ok payload -> (
            match J.of_string payload with
            | Error _ -> `Retry
            | Ok msg -> (
                match J.member "op" msg with
                | Some (J.Str "welcome") ->
                    let hb =
                      match Option.bind (J.member "hb_ms" msg) J.number with
                      | Some f when f > 0.0 -> f /. 1000.0
                      | _ -> 1.0
                    in
                    `Welcome hb
                | Some (J.Str "reject") ->
                    let reason =
                      match J.member "reason" msg with
                      | Some (J.Str s) -> s
                      | _ -> "unspecified"
                    in
                    `Rejected reason
                | _ -> `Retry)))
  in
  let serve fd ~hb_period_s =
    (* Partition watch: silence for many heartbeat periods means the
       coordinator (or the path to it) is gone. One unanswered probe
       confirms it; then tear down and re-dial. The floor keeps a
       worker from churning across the idle gaps between sweeps. *)
    let idle_s = Float.max (10.0 *. hb_period_s) 30.0 in
    let send payload =
      match Frame.write fd payload with
      | _ -> true
      | exception Unix.Unix_error _ -> false
    in
    let rec loop ~probed =
      match Frame.read_timeout ~timeout_s:idle_s fd with
      | Error Frame.Timeout ->
          if probed then `Reconnect
          else if send (J.to_string (J.Obj [ ("op", J.Str "hb") ])) then
            loop ~probed:true
          else `Reconnect
      | Error _ -> `Reconnect
      | Ok payload -> (
          match J.of_string payload with
          | Error _ -> `Reconnect
          | Ok msg -> (
              match J.member "op" msg with
              | Some (J.Str "hb") ->
                  if
                    send
                      (J.to_string
                         (J.Obj [ ("op", J.Str "hb"); ("echo", J.Bool true) ]))
                  then loop ~probed:false
                  else `Reconnect
              | Some (J.Str "exit") ->
                  ignore (send (bye_payload ()));
                  `Exit
              | Some (J.Str "task") -> (
                  let (task, ok, err), artifacts =
                    Cache.with_recording (fun () -> run_task_frame msg)
                  in
                  (* Same exactly-once hazard as the local path, but
                     the remote expression of it: the work is done,
                     the channel dies before the ack, and the worker
                     comes back as a fresh registration. *)
                  if Faults.fires "dispatch.result" then `Reconnect
                  else
                    match ship_artifacts fd artifacts with
                    | None -> `Reconnect
                    | Some shipped ->
                        if send (done_payload task ok err ~artifacts:shipped)
                        then loop ~probed:false
                        else `Reconnect)
              | _ -> `Reconnect))
    in
    loop ~probed:false
  in
  let rec connect_loop ~reconnect =
    match dial () with
    | None ->
        note_failure ();
        connect_loop ~reconnect
    | Some fd -> (
        match handshake fd ~reconnect with
        | `Retry ->
            close fd;
            note_failure ();
            connect_loop ~reconnect
        | `Rejected reason ->
            close fd;
            Printf.eprintf
              "frontend-repro: worker: registration rejected (%s)\n%!" reason;
            exit 4
        | `Welcome hb_period_s -> (
            failures := 0;
            Repro_util.Backoff.reset backoff;
            match serve fd ~hb_period_s with
            | `Exit ->
                close fd;
                exit 0
            | `Reconnect ->
                close fd;
                Repro_util.Backoff.sleep backoff;
                connect_loop ~reconnect:true))
  in
  connect_loop ~reconnect:false

let maybe_worker () =
  match Sys.getenv_opt env_marker with
  | Some "1" -> (
      match Sys.getenv_opt "REPRO_CONNECT" with
      | Some addr when addr <> "" -> remote_worker_main addr
      | _ -> worker_main ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

type peer = Local | Remote of int  (* registration id *)

type worker = {
  w_pid : int;  (* 0 for remote peers: their process is not ours *)
  w_fd : Unix.file_descr;
  w_peer : peer;
  w_queue : Experiment.task Queue.t;  (* leased, ack expected head-first *)
  mutable w_deadline : int64;  (* monotonic ns; meaningful when leased *)
  mutable w_alive : bool;
  mutable w_hb_deadline : int64;  (* partition watch for idle remotes *)
  mutable w_suspect : bool;  (* expired remote: no leases until a frame *)
  mutable w_staged : (string * string) list;  (* artifacts, newest first *)
}

let is_remote w = match w.w_peer with Remote _ -> true | Local -> false

type pool = {
  mutable members : worker list;  (* remote registrations append *)
  p_cache_dir : string;
  p_listener : Unix.file_descr option;
  p_port : int;
}

let pool_ref : pool option ref = ref None
let at_exit_registered = ref false
let remote_ids = ref 0

(* Pids of remote-worker helper processes spawned by this process
   (loopback tests and bench probes). They are our children even
   though their pool membership is a TCP registration, so shutdown
   must kill and reap them. *)
let spawned_remote : int list ref = ref []

(* Environment for a worker process: inherit everything, then pin the
   coordination-critical variables. Workers run single-domain
   ([REPRO_JOBS=1] — parallelism comes from the process axis) and
   never dispatch or listen themselves. Local workers share the
   coordinator's cache directory even when it was set programmatically
   rather than via env; remote-helper spawns override it. *)
let env_with overrides =
  let keys = List.map fst overrides in
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> not (List.mem (String.sub kv 0 i) keys)
           | None -> true)
  in
  Array.of_list (inherited @ List.map (fun (k, v) -> k ^ "=" ^ v) overrides)

let base_overrides () =
  [ (env_marker, "1"); ("REPRO_JOBS", "1"); ("REPRO_WORKERS", "0");
    ("REPRO_LISTEN", "");
    ("REPRO_TRACE", if Telemetry.enabled () then "1" else "0") ]
  @ (match Faults.spec () with
    | Some s -> [ ("REPRO_FAULTS", s) ]
    | None -> [])

let worker_env () =
  env_with
    (base_overrides ()
    @ [ ("REPRO_CONNECT", "");
        ("REPRO_CACHE", if Cache.enabled () then "1" else "0");
        ("REPRO_CACHE_DIR", Cache.dir ()) ])

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let retire w =
  if w.w_alive then begin
    w.w_alive <- false;
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    if w.w_pid > 0 then reap w.w_pid
  end

let spawn_worker () =
  if Faults.fires "dispatch.spawn" then begin
    g.m_spawn_failures <- g.m_spawn_failures + 1;
    Telemetry.incr "dispatch.spawn_failures";
    None
  end
  else
    match Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ ->
        g.m_spawn_failures <- g.m_spawn_failures + 1;
        Telemetry.incr "dispatch.spawn_failures";
        None
    | parent_fd, child_fd -> (
        Unix.set_close_on_exec parent_fd;
        match
          Unix.create_process_env Sys.executable_name
            [| Sys.executable_name; "worker" |]
            (worker_env ()) child_fd child_fd Unix.stderr
        with
        | pid ->
            Unix.close child_fd;
            Telemetry.incr "dispatch.spawned";
            Some
              { w_pid = pid; w_fd = parent_fd; w_peer = Local;
                w_queue = Queue.create (); w_deadline = 0L; w_alive = true;
                w_hb_deadline = 0L; w_suspect = false; w_staged = [] }
        | exception Unix.Unix_error _ ->
            (try Unix.close parent_fd with Unix.Unix_error _ -> ());
            (try Unix.close child_fd with Unix.Unix_error _ -> ());
            g.m_spawn_failures <- g.m_spawn_failures + 1;
            Telemetry.incr "dispatch.spawn_failures";
            None)

let absorb_bye payload =
  match J.of_string payload with
  | Ok msg -> (
      match J.member "counters" msg with
      | Some (J.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              match J.number v with
              | Some f -> Telemetry.add k (int_of_float f)
              | None -> ())
            kvs
      | _ -> ())
  | Error _ -> ()

(* Grace window for the exit handshake: an idle worker answers
   instantly; anything slower gets SIGKILL (locals) or a closed
   connection (remotes). *)
let shutdown_grace_s = 5.0

let dispose pool =
  List.iter
    (fun w ->
      if w.w_alive then begin
        (try ignore (Frame.write w.w_fd (J.to_string (J.Obj [ ("op", J.Str "exit") ])))
         with Unix.Unix_error _ -> ());
        let ready =
          match Unix.select [ w.w_fd ] [] [] shutdown_grace_s with
          | r, _, _ -> r <> []
          | exception Unix.Unix_error _ -> false
        in
        (if ready then
           match Frame.read w.w_fd with
           | Ok payload -> absorb_bye payload
           | Error _ -> ());
        if (not ready) && w.w_pid > 0 then
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        retire w
      end)
    pool.members;
  (match pool.p_listener with
  | Some lfd -> ( try Unix.close lfd with Unix.Unix_error _ -> ())
  | None -> ());
  (* Remote helpers we spawned are our children: anything that did
     not exit on its own (still in a reconnect loop, wedged) is
     killed, and every pid is reaped so no zombie outlives the pool. *)
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !spawned_remote;
  spawned_remote := []

let shutdown () =
  match !pool_ref with
  | None -> ()
  | Some pool ->
      pool_ref := None;
      dispose pool

(* Loopback-or-any TCP listener for remote registrations. Nonblocking
   so a connection that dies between select and accept cannot wedge
   the coordinator; accepted channels are blocking again. *)
let open_listener spec =
  match parse_addr ~default_host:Unix.inet_addr_any spec with
  | None ->
      Env.warn_once "dispatch-bad-listen"
        (Printf.sprintf
           "frontend-repro: ignoring invalid listen address %S (want \
            host:port)"
           spec);
      None
  | Some (host, port) -> (
      match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> None
      | fd -> (
          try
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd (Unix.ADDR_INET (host, port));
            Unix.listen fd 16;
            Unix.set_nonblock fd;
            let port =
              match Unix.getsockname fd with
              | Unix.ADDR_INET (_, p) -> p
              | _ -> port
            in
            Some (fd, port)
          with Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Env.warn_once "dispatch-bad-listen"
              (Printf.sprintf
                 "frontend-repro: cannot listen on %S; remote dispatch \
                  disabled"
                 spec);
            None))

let handshake_timeout_s = 2.0

let hb_deadline_from now =
  Int64.add now (Int64.mul (Int64.of_int (3 * hb_ms ())) 1_000_000L)

(* One registration attempt: accept, read the hello under a deadline
   (a connected-but-silent peer must not wedge the coordinator),
   check protocol/cache/catalogue identity, then welcome or reject
   with a typed reason. Returns [false] when nothing was pending. *)
let accept_registration pool lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      false
  | exception Unix.Unix_error _ -> false
  | fd, _ ->
      (if Faults.fires "dispatch.connect" then begin
         (* Simulated accept failure: the dial is dropped on the
            floor; the worker backs off and re-dials. *)
         Telemetry.incr "dispatch.connect_faults";
         try Unix.close fd with Unix.Unix_error _ -> ()
       end
       else begin
         (try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ());
         let reject reason ~want ~got =
           let payload =
             J.to_string
               (J.Obj
                  [ ("op", J.Str "reject"); ("reason", J.Str reason);
                    ("want", J.Str want); ("got", J.Str got) ])
           in
           (try ignore (Frame.write fd payload) with Unix.Unix_error _ -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ());
           g.m_handshake_rejects <- g.m_handshake_rejects + 1;
           Telemetry.incr "dispatch.handshake_rejects"
         in
         match Frame.read_timeout ~timeout_s:handshake_timeout_s fd with
         | Error e ->
             reject "garbage" ~want:"hello frame" ~got:(Frame.error_to_string e)
         | Ok payload -> (
             match J.of_string payload with
             | Error _ -> reject "garbage" ~want:"hello json" ~got:"unparseable"
             | Ok msg -> (
                 let str k =
                   match J.member k msg with
                   | Some (J.Str s) -> Some s
                   | _ -> None
                 in
                 let is_hello =
                   match str "op" with Some "hello" -> true | _ -> false
                 in
                 let proto =
                   match Option.bind (J.member "proto" msg) J.number with
                   | Some f -> int_of_float f
                   | None -> -1
                 in
                 let cache = Option.value ~default:"" (str "cache") in
                 let fp = Option.value ~default:"" (str "fingerprint") in
                 let reconnect =
                   match J.member "reconnect" msg with
                   | Some (J.Bool b) -> b
                   | _ -> false
                 in
                 if not is_hello then
                   reject "garbage" ~want:"op=hello"
                     ~got:(Option.value ~default:"?" (str "op"))
                 else if proto <> proto_version then
                   reject "proto-version"
                     ~want:(string_of_int proto_version)
                     ~got:(string_of_int proto)
                 else if not (String.equal cache Cache.version) then
                   reject "cache-version" ~want:Cache.version ~got:cache
                 else if not (String.equal fp (catalog_fingerprint ())) then
                   reject "fingerprint" ~want:(catalog_fingerprint ()) ~got:fp
                 else begin
                   incr remote_ids;
                   let id = !remote_ids in
                   let welcome =
                     J.to_string
                       (J.Obj
                          [ ("op", J.Str "welcome");
                            ("worker", J.Num (float_of_int id));
                            ("hb_ms", J.Num (float_of_int (hb_ms ())));
                            ("batch", J.Num (float_of_int (lease_batch ())))
                          ])
                   in
                   match Frame.write fd welcome with
                   | exception Unix.Unix_error _ -> (
                       try Unix.close fd with Unix.Unix_error _ -> ())
                   | _ ->
                       let w =
                         { w_pid = 0; w_fd = fd; w_peer = Remote id;
                           w_queue = Queue.create (); w_deadline = 0L;
                           w_alive = true;
                           w_hb_deadline =
                             hb_deadline_from (Telemetry.now_ns ());
                           w_suspect = false; w_staged = [] }
                       in
                       pool.members <- pool.members @ [ w ];
                       g.m_remote_workers <- g.m_remote_workers + 1;
                       Telemetry.incr "dispatch.remote_registered";
                       if reconnect then begin
                         g.m_reconnects <- g.m_reconnects + 1;
                         Telemetry.incr "dispatch.reconnects"
                       end
                 end))
       end);
      true

(* Drain every pending registration without blocking. Public: tests
   and bench probes pump this to register workers deterministically
   before the timed region; the sweep loop calls it whenever the
   listener polls readable. *)
let poll_registrations () =
  match !pool_ref with
  | Some ({ p_listener = Some lfd; _ } as pool) ->
      while accept_registration pool lfd do
        ()
      done
  | Some { p_listener = None; _ } | None -> ()

let new_pool n =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit shutdown
  end;
  let members = List.filter_map (fun _ -> spawn_worker ()) (List.init n Fun.id) in
  let listener, port =
    match listen_spec () with
    | None -> (None, 0)
    | Some spec -> (
        match open_listener spec with
        | Some (fd, port) -> (Some fd, port)
        | None -> (None, 0))
  in
  let pool =
    { members; p_cache_dir = Cache.dir (); p_listener = listener;
      p_port = port }
  in
  pool_ref := Some pool;
  pool

(* Reuse the live pool when its world still matches; respawn when the
   cache directory moved (the workers inherited the old one at exec
   time), the listen configuration changed, or nothing can serve. *)
let ensure_pool n =
  match !pool_ref with
  | Some pool
    when String.equal pool.p_cache_dir (Cache.dir ())
         && (pool.p_listener <> None) = remote_enabled ()
         && (List.exists (fun w -> w.w_alive) pool.members
            || pool.p_listener <> None) ->
      pool
  | Some pool ->
      pool_ref := None;
      dispose pool;
      new_pool n
  | None -> new_pool n

let pids () =
  match !pool_ref with
  | None -> []
  | Some pool ->
      List.filter_map
        (fun w -> if w.w_alive && w.w_pid > 0 then Some w.w_pid else None)
        pool.members

let listen_port () =
  match !pool_ref with
  | Some { p_listener = Some _; p_port; _ } -> Some p_port
  | Some { p_listener = None; _ } | None -> None

let prewarm () =
  let n = workers () in
  if n > 0 || remote_enabled () then ignore (ensure_pool n)

(* Spawn a remote-worker helper against our own listener: the same
   binary, re-exec'd with a connect address and a private cache
   directory (a remote worker must prove artifacts cross the wire,
   not the filesystem). Used by the loopback tests and bench probes;
   a real deployment runs [repro_cli worker --connect] by hand. *)
let spawn_remote_worker ~cache_dir () =
  match listen_port () with
  | None -> None
  | Some port -> (
      let env =
        env_with
          (base_overrides ()
          @ [ ("REPRO_CACHE", "1"); ("REPRO_CACHE_DIR", cache_dir);
              ("REPRO_CONNECT", Printf.sprintf "127.0.0.1:%d" port);
              ("REPRO_CONNECT_ATTEMPTS", "50") ])
      in
      match Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 with
      | exception Unix.Unix_error _ -> None
      | devnull -> (
          match
            Unix.create_process_env Sys.executable_name
              [| Sys.executable_name; "worker" |]
              env devnull devnull Unix.stderr
          with
          | pid ->
              Unix.close devnull;
              spawned_remote := pid :: !spawned_remote;
              Telemetry.incr "dispatch.remote_spawned";
              Some pid
          | exception Unix.Unix_error _ ->
              (try Unix.close devnull with Unix.Unix_error _ -> ());
              None))

(* ------------------------------------------------------------------ *)
(* Journal identity *)

let journal_name id = "dispatch-" ^ Experiment.to_string id

let journal_fingerprint ~scale id =
  String.concat "|"
    ([ "dispatch1"; Experiment.to_string id; Printf.sprintf "%h" scale;
       Cache.version;
       (if Experiment.packed_enabled () then "p1" else "p0") ]
    @ List.map Experiment.task_id (Experiment.tasks_for id))

(* ------------------------------------------------------------------ *)
(* The sweep loop *)

let run_tasks ~scale ~name ~fingerprint tasks pool =
  g.m_tasks <- g.m_tasks + List.length tasks;
  let journal = Journal.open_run ~name ~fingerprint in
  let jhandle = Option.map fst journal in
  let done_tbl : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (match journal with
  | Some (_, recovered) ->
      List.iter
        (fun (step, _) ->
          if not (Hashtbl.mem done_tbl step) then begin
            Hashtbl.replace done_tbl step ();
            g.m_skipped <- g.m_skipped + 1;
            Telemetry.incr "dispatch.journal_skipped"
          end)
        recovered
  | None -> ());
  let pending = Queue.create () in
  List.iter
    (fun t ->
      if not (Hashtbl.mem done_tbl (Experiment.task_id t)) then
        Queue.add t pending)
    tasks;
  let record_done t =
    let idstr = Experiment.task_id t in
    if Hashtbl.mem done_tbl idstr then begin
      g.m_dups <- g.m_dups + 1;
      Telemetry.incr "dispatch.dup_results"
    end
    else begin
      Hashtbl.replace done_tbl idstr ();
      match jhandle with
      | Some j -> Journal.append j ~step:idstr ~payload:""
      | None -> ()
    end
  in
  let lease_deadline now =
    Int64.add now (Int64.mul (Int64.of_int (lease_ms ())) 1_000_000L)
  in
  let reissue_queue w =
    while not (Queue.is_empty w.w_queue) do
      let t = Queue.pop w.w_queue in
      g.m_reissued <- g.m_reissued + 1;
      Telemetry.incr "dispatch.reissued";
      Queue.add t pending
    done;
    w.w_deadline <- 0L;
    w.w_staged <- []
  in
  let warn_remote_dead () =
    if
      List.exists (fun w -> w.w_alive && not (is_remote w)) pool.members
      && not (List.exists (fun w -> w.w_alive && is_remote w) pool.members)
    then
      Env.warn_once "dispatch-remote-dead"
        "frontend-repro: all remote workers lost; continuing with the \
         local pool"
  in
  let fail_worker ?(expired = false) w =
    if w.w_alive then begin
      if expired then begin
        (* Kill before re-issuing: a wedged-but-alive leaseholder must
           not keep running concurrently with its successor. *)
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        g.m_expired <- g.m_expired + 1;
        Telemetry.incr "dispatch.expired"
      end;
      g.m_deaths <- g.m_deaths + 1;
      Telemetry.incr "dispatch.worker_deaths";
      let was_remote = is_remote w in
      retire w;
      reissue_queue w;
      if was_remote then warn_remote_dead ()
    end
  in
  (* An expired remote lease cannot be backed by a SIGKILL — the
     process is on another machine. Instead: re-issue the lease,
     drop anything it staged, and mark the worker suspect so it gets
     no new leases until a frame proves it is alive (a late ack then
     lands as a counted duplicate, exactly like a local straggler).
     A still-partitioned worker falls to the heartbeat watch next. *)
  let expire_remote w =
    g.m_expired <- g.m_expired + 1;
    Telemetry.incr "dispatch.expired";
    w.w_suspect <- true;
    reissue_queue w;
    w.w_hb_deadline <- hb_deadline_from (Telemetry.now_ns ())
  in
  let task_frame t =
    J.to_string
      (J.Obj
         [ ("op", J.Str "task"); ("kind", J.Str t.Experiment.t_kind);
           ("bench", J.Str t.Experiment.t_bench); ("scale", J.Num scale);
           ("packed", J.Bool (Experiment.packed_enabled ())) ])
  in
  let grant pool =
    if not (draining ()) then
      let k = lease_batch () in
      List.iter
        (fun w ->
          if
            w.w_alive && (not w.w_suspect)
            && Queue.is_empty w.w_queue
            && not (Queue.is_empty pending)
          then
            if Faults.fires "dispatch.lease" then begin
              (* Torn lease grant: the channel is severed mid-handshake.
                 The task was never popped, the worker is lost to EOF —
                 exactly what a coordinator-side fault would cost. *)
              Telemetry.incr "dispatch.lease_faults";
              fail_worker w
            end
            else begin
              let failed = ref false in
              while
                (not !failed)
                && Queue.length w.w_queue < k
                && not (Queue.is_empty pending)
              do
                let t = Queue.pop pending in
                match Frame.write w.w_fd (task_frame t) with
                | _ ->
                    Queue.add t w.w_queue;
                    Telemetry.incr "dispatch.leases"
                | exception Unix.Unix_error _ ->
                    Queue.add t pending;
                    failed := true
              done;
              if !failed then fail_worker w
              else if not (Queue.is_empty w.w_queue) then
                w.w_deadline <- lease_deadline (Telemetry.now_ns ())
            end)
        pool.members
  in
  (* Any frame is proof of life: reset the partition watch and lift
     suspicion (the suspect's leases were already re-issued; it can
     simply take new ones). *)
  let touch w =
    w.w_hb_deadline <- hb_deadline_from (Telemetry.now_ns ());
    w.w_suspect <- false
  in
  let stage_artifact w payload =
    let mlen = String.length artifact_magic in
    let name, bytes =
      match String.index_from_opt payload mlen '\n' with
      | None -> ("", "")  (* malformed: fails install, counted below *)
      | Some i ->
          ( String.sub payload mlen (i - mlen),
            String.sub payload (i + 1) (String.length payload - i - 1) )
    in
    w.w_staged <- (name, bytes) :: w.w_staged
  in
  (* A task whose artifacts keep failing verification (a worker with
     genuinely bad memory or a deterministic corruption fault at
     probability 1) must not ping-pong forever: after a few rejects
     the coordinator computes it in-process, like a pool-death
     fallback for that one task. *)
  let reject_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let inline_run t =
    (try ignore (Experiment.run_task ~scale t)
     with Failure.Error _ | Faults.Injected _ -> ());
    g.m_fallback <- g.m_fallback + 1;
    Telemetry.incr "dispatch.fallback_tasks";
    record_done t
  in
  let handle_done w msg =
    let tid = match J.member "task" msg with Some (J.Str s) -> s | _ -> "" in
    match Queue.peek_opt w.w_queue with
    | Some t when String.equal (Experiment.task_id t) tid ->
        let staged = List.rev w.w_staged in
        w.w_staged <- [];
        let declared =
          match Option.bind (J.member "artifacts" msg) J.number with
          | Some f -> int_of_float f
          | None -> 0
        in
        let install_ok =
          if not (is_remote w) then true
          else if List.length staged <> declared then false
          else
            (* Install every artifact even after a failure: the good
               ones are valid data, and each bad one leaves its own
               [.bad] evidence. *)
            List.fold_left
              (fun acc (aname, bytes) ->
                let ok = Cache.install_raw ~name:aname bytes in
                if ok then begin
                  g.m_wire_artifacts <- g.m_wire_artifacts + 1;
                  Telemetry.incr "dispatch.wire_artifacts";
                  Telemetry.add "dispatch.wire_bytes" (String.length bytes)
                end;
                acc && ok)
              true staged
        in
        ignore (Queue.pop w.w_queue);
        (if install_ok then begin
           record_done t;
           g.m_completed <- g.m_completed + 1;
           Telemetry.incr "dispatch.completed";
           match J.member "ok" msg with
           | Some (J.Bool false) -> Telemetry.incr "dispatch.task_errors"
           | _ -> ()
         end
         else begin
           g.m_payload_rejects <- g.m_payload_rejects + 1;
           Telemetry.incr "dispatch.payload_rejects";
           let n =
             1 + Option.value ~default:0 (Hashtbl.find_opt reject_counts tid)
           in
           Hashtbl.replace reject_counts tid n;
           if n >= 3 then inline_run t
           else begin
             g.m_reissued <- g.m_reissued + 1;
             Telemetry.incr "dispatch.reissued";
             Queue.add t pending
           end
         end);
        w.w_deadline <-
          (if Queue.is_empty w.w_queue then 0L
           else lease_deadline (Telemetry.now_ns ()))
    | _ ->
        (* Unsolicited or mismatched ack: count and drop, along with
           whatever it staged for it. *)
        w.w_staged <- [];
        g.m_dups <- g.m_dups + 1;
        Telemetry.incr "dispatch.dup_results"
  in
  let handle_result w =
    match Frame.read w.w_fd with
    | Error _ -> fail_worker w
    | Ok payload ->
        touch w;
        if String.starts_with ~prefix:artifact_magic payload then
          stage_artifact w payload
        else (
          match J.of_string payload with
          | Ok msg -> (
              match J.member "op" msg with
              | Some (J.Str "hb") -> ()  (* the touch was the point *)
              | Some (J.Str "done") -> handle_done w msg
              | Some (J.Str "bye") ->
                  absorb_bye payload;
                  fail_worker w
              | _ -> fail_worker w)
          | Error _ ->
              (* Garbage from a worker is unrecoverable on that channel:
                 same taxonomy as the server, sever and re-issue. *)
              fail_worker w)
  in
  let fallback () =
    if not (Queue.is_empty pending) && not (draining ()) then begin
      Env.warn_once "dispatch-fallback"
        "frontend-repro: no dispatch workers left; finishing the sweep \
         in-process";
      while (not (Queue.is_empty pending)) && not (draining ()) do
        let t = Queue.pop pending in
        (try ignore (Experiment.run_task ~scale t)
         with Failure.Error _ | Faults.Injected _ -> ());
        g.m_fallback <- g.m_fallback + 1;
        Telemetry.incr "dispatch.fallback_tasks";
        record_done t
      done
    end
  in
  let accept_all () =
    match pool.p_listener with
    | Some lfd ->
        while accept_registration pool lfd do
          ()
        done
    | None -> ()
  in
  let next_hb = ref 0L in
  let send_heartbeats now =
    if Int64.compare now !next_hb >= 0 then begin
      List.iter
        (fun w ->
          if w.w_alive && is_remote w then
            if Faults.fires "dispatch.heartbeat" then
              (* Dropped on the floor: to the worker this period is
                 silence; enough of them and its partition watch (or
                 ours) trips — which is the point of the site. *)
              Telemetry.incr "dispatch.hb_drops"
            else
              match
                Frame.write w.w_fd (J.to_string (J.Obj [ ("op", J.Str "hb") ]))
              with
              | _ -> ()
              | exception Unix.Unix_error _ -> fail_worker w)
        pool.members;
      next_hb :=
        Int64.add now (Int64.mul (Int64.of_int (hb_ms ())) 1_000_000L)
    end
  in
  let check_heartbeats now =
    List.iter
      (fun w ->
        if
          w.w_alive && is_remote w
          && Queue.is_empty w.w_queue
          && Int64.compare now w.w_hb_deadline > 0
        then begin
          g.m_hb_timeouts <- g.m_hb_timeouts + 1;
          Telemetry.incr "dispatch.hb_timeouts";
          fail_worker w
        end)
      pool.members
  in
  (* When every member is gone but a listener is up, give dialers a
     bounded grace window before falling back in-process: a rebooted
     remote fleet re-registers, a dead one costs [remote_grace_ms]. *)
  let grace_deadline = ref None in
  let rec loop () =
    accept_all ();
    grant pool;
    let alive = List.filter (fun w -> w.w_alive) pool.members in
    let active = List.filter (fun w -> not (Queue.is_empty w.w_queue)) alive in
    if active = [] && (Queue.is_empty pending || draining ()) then ()
    else if alive = [] then (
      match pool.p_listener with
      | None -> fallback ()
      | Some lfd ->
          let now = Telemetry.now_ns () in
          let deadline =
            match !grace_deadline with
            | Some d -> d
            | None ->
                let d =
                  Int64.add now
                    (Int64.mul (Int64.of_int (remote_grace_ms ())) 1_000_000L)
                in
                grace_deadline := Some d;
                d
          in
          if Int64.compare now deadline >= 0 then fallback ()
          else begin
            let remaining =
              Int64.to_float (Int64.sub deadline now) /. 1e9
            in
            let timeout = Float.max 0.01 (Float.min remaining 0.25) in
            (match Unix.select [ lfd ] [] [] timeout with
            | _ -> ()
            | exception Unix.Unix_error _ -> ());
            loop ()
          end)
    else begin
      grace_deadline := None;
      let now = Telemetry.now_ns () in
      if List.exists is_remote alive then send_heartbeats now;
      let timeout =
        let cand acc d =
          Float.min acc (Int64.to_float (Int64.sub d now) /. 1e9)
        in
        let t = List.fold_left (fun acc w -> cand acc w.w_deadline) 5.0 active in
        let t =
          List.fold_left
            (fun acc w ->
              if is_remote w && Queue.is_empty w.w_queue then
                cand acc w.w_hb_deadline
              else acc)
            t alive
        in
        let t = if List.exists is_remote alive then cand t !next_hb else t in
        Float.max 0.01 (Float.min t 5.0)
      in
      let fds = List.map (fun w -> w.w_fd) alive in
      let fds =
        match pool.p_listener with Some lfd -> lfd :: fds | None -> fds
      in
      let readable =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (match pool.p_listener with
      | Some lfd when List.mem lfd readable -> accept_all ()
      | _ -> ());
      List.iter
        (fun w -> if w.w_alive && List.mem w.w_fd readable then handle_result w)
        alive;
      let now = Telemetry.now_ns () in
      List.iter
        (fun w ->
          if
            w.w_alive
            && (not (Queue.is_empty w.w_queue))
            && Int64.compare now w.w_deadline > 0
          then
            match w.w_peer with
            | Local -> fail_worker ~expired:true w
            | Remote _ -> expire_remote w)
        pool.members;
      check_heartbeats now;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      match jhandle with Some j -> Journal.close j | None -> ())
    (fun () ->
      (if
         List.exists (fun w -> w.w_alive) pool.members
         || pool.p_listener <> None
       then loop ()
       else fallback ());
      (* The sweep completed: every task is recorded done, so the
         journal has served its purpose — unless a drain left work
         pending, in which case the close above keeps the records
         for the restart to resume from. *)
      match jhandle with
      | Some j -> if Queue.is_empty pending then Journal.finish j
      | None -> ())

let prefetch ?(scale = 1.0) id =
  let n = workers () in
  if (n <= 0 && not (remote_enabled ())) || draining () then ()
  else if not (Cache.enabled ()) then
    (* Without the shared disk cache a worker's results could never
       reach the coordinator; this also keeps the bench probes (which
       disable the cache around their timed recomputes) honestly
       in-process. *)
    Env.warn_once "dispatch-no-cache"
      "frontend-repro: --workers requires the persistent cache \
       (REPRO_CACHE=0 set?); running in-process"
  else
    match Experiment.tasks_for id with
    | [] -> ()
    | tasks ->
        Telemetry.with_span "dispatch.run" (fun () ->
            let pool = ensure_pool n in
            run_tasks ~scale ~name:(journal_name id)
              ~fingerprint:(journal_fingerprint ~scale id)
              tasks pool)
