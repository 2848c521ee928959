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

   At-least-once delivery: tasks are idempotent cache stores, so the
   cache is the only record of finished work. A coordinator killed
   mid-sweep loses nothing but time — the rerun's tasks for stored
   artifacts are cache hits — and duplicate acks within a sweep are
   counted and dropped. Whatever the pool leaves undone (every member
   lost) is computed by the caller's ordinary in-process render. *)

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

(* ------------------------------------------------------------------ *)
(* Statistics *)

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

type mstats = {
  mutable m_tasks : int;
  mutable m_completed : int;
  mutable m_fallback : int;
  mutable m_reissued : int;
  mutable m_expired : int;
  mutable m_deaths : int;
  mutable m_dups : int;
  mutable m_spawn_failures : int;
}

let g =
  { m_tasks = 0; m_completed = 0; m_fallback = 0; m_reissued = 0;
    m_expired = 0; m_deaths = 0; m_dups = 0; m_spawn_failures = 0 }

let stats () =
  { tasks = g.m_tasks; completed = g.m_completed; fallback = g.m_fallback;
    reissued = g.m_reissued; expired = g.m_expired;
    worker_deaths = g.m_deaths; dup_results = g.m_dups;
    spawn_failures = g.m_spawn_failures }

let reset_stats () =
  g.m_tasks <- 0;
  g.m_completed <- 0;
  g.m_fallback <- 0;
  g.m_reissued <- 0;
  g.m_expired <- 0;
  g.m_deaths <- 0;
  g.m_dups <- 0;
  g.m_spawn_failures <- 0

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* Counters a worker reports home in its final frame. A fixed
   whitelist keeps the frame small and the coordinator's absorption
   deterministic; anything a worker counts outside this list is
   visible in its own stderr telemetry report instead. *)
let exported_counters =
  [ "experiment.sim_insts"; "engine.tasks_ok"; "engine.tasks_retried";
    "engine.tasks_failed"; "engine.busy_ns";
    "cache.hits"; "cache.misses"; "cache.read_bytes"; "cache.write_bytes";
    "cache.quarantined"; "faults.injected"; "experiment.holes";
    "experiment.capture_fallbacks"; "experiment.captures";
    "experiment.capture_evictions"; "dispatch.worker_tasks" ]

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

(* Execute one task frame through the ordinary Experiment machinery
   and build its acknowledgement. *)
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
  let task = { Experiment.t_kind = kind; t_bench = bench } in
  let ok, err =
    match Experiment.run_task ~scale task with
    | true -> (true, None)
    | false -> (false, Some "unknown task")
    | exception e -> (false, Some (Printexc.to_string e))
  in
  Telemetry.incr "dispatch.worker_tasks";
  J.to_string
    (J.Obj
       ([ ("op", J.Str "done"); ("task", J.Str (Experiment.task_id task));
          ("ok", J.Bool ok) ]
       @ match err with Some e -> [ ("error", J.Str e) ] | None -> []))

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
                let ack = run_task_frame msg in
                (* The canonical at-least-once hazard: the artifact is
                   in the cache but the ack never leaves. The lease
                   expires or the EOF lands, the task re-issues, and
                   the successor's recompute is a pure cache hit. *)
                if Faults.fires "dispatch.result" then exit 3;
                (try ignore (Frame.write fd_out ack)
                 with Unix.Unix_error _ -> exit 0);
                loop ()
            | Some (J.Str "exit") ->
                (try ignore (Frame.write fd_out (bye_payload ()))
                 with Unix.Unix_error _ -> ());
                exit 0
            | _ -> exit 2))
  in
  loop ()

let maybe_worker () =
  match Sys.getenv_opt env_marker with Some "1" -> worker_main () | _ -> ()

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

type worker = {
  w_pid : int;
  w_fd : Unix.file_descr;
  mutable w_lease : Experiment.task option;  (* ack expected for it *)
  mutable w_deadline : int64;  (* monotonic ns; meaningful when leased *)
  mutable w_alive : bool;
}

type pool = { members : worker list; p_cache_dir : string }

let pool_ref : pool option ref = ref None
let at_exit_registered = ref false

(* Environment for a worker process: inherit everything, then pin the
   coordination-critical variables. Workers run single-domain
   ([REPRO_JOBS=1] — parallelism comes from the process axis), never
   dispatch themselves, and share the coordinator's cache directory
   even when it was set programmatically rather than via env. *)
let worker_env () =
  let overrides =
    [ (env_marker, "1"); ("REPRO_JOBS", "1"); ("REPRO_WORKERS", "0");
      ("REPRO_TRACE", if Telemetry.enabled () then "1" else "0");
      ("REPRO_CACHE", if Cache.enabled () then "1" else "0");
      ("REPRO_CACHE_DIR", Cache.dir ()) ]
    @ match Faults.spec () with Some s -> [ ("REPRO_FAULTS", s) ] | None -> []
  in
  let keys = List.map fst overrides in
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> not (List.mem (String.sub kv 0 i) keys)
           | None -> true)
  in
  Array.of_list (inherited @ List.map (fun (k, v) -> k ^ "=" ^ v) overrides)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let retire w =
  if w.w_alive then begin
    w.w_alive <- false;
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    reap w.w_pid
  end

let spawn_worker () =
  let spawn_failed () =
    g.m_spawn_failures <- g.m_spawn_failures + 1;
    Telemetry.incr "dispatch.spawn_failures";
    None
  in
  if Faults.fires "dispatch.spawn" then spawn_failed ()
  else
    match Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> spawn_failed ()
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
              { w_pid = pid; w_fd = parent_fd; w_lease = None;
                w_deadline = 0L; w_alive = true }
        | exception Unix.Unix_error _ ->
            (try Unix.close parent_fd with Unix.Unix_error _ -> ());
            (try Unix.close child_fd with Unix.Unix_error _ -> ());
            spawn_failed ())

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
   instantly; anything slower gets SIGKILL. *)
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
        if not ready then
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        retire w
      end)
    pool.members

let shutdown () =
  match !pool_ref with
  | None -> ()
  | Some pool ->
      pool_ref := None;
      dispose pool

let new_pool n =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit shutdown
  end;
  let members = List.filter_map (fun _ -> spawn_worker ()) (List.init n Fun.id) in
  let pool = { members; p_cache_dir = Cache.dir () } in
  pool_ref := Some pool;
  pool

(* [w_alive] turns false only when a sweep reads a member's EOF, so a
   member that died between sweeps still reads as alive. Ask the
   process itself: exited, or already reaped by someone else (ECHILD). *)
let exited w =
  match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Reuse the live pool only when its world still matches: the same
   cache directory (the workers inherited it at exec time) and exactly
   [n] live members. A pool that lost a member, or was spawned for
   another size, is replaced whole. *)
let ensure_pool n =
  Option.iter
    (fun pool ->
      List.iter (fun w -> if w.w_alive && exited w then retire w) pool.members)
    !pool_ref;
  match !pool_ref with
  | Some pool
    when String.equal pool.p_cache_dir (Cache.dir ())
         && List.length (List.filter (fun w -> w.w_alive) pool.members) = n ->
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
        (fun w -> if w.w_alive then Some w.w_pid else None)
        pool.members

let prewarm () =
  let n = workers () in
  if n > 0 then ignore (ensure_pool n)

(* ------------------------------------------------------------------ *)
(* The sweep loop *)

let run_tasks ~scale tasks pool =
  g.m_tasks <- g.m_tasks + List.length tasks;
  let pending = Queue.of_seq (List.to_seq tasks) in
  let done_tbl : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let record_done t =
    let idstr = Experiment.task_id t in
    if Hashtbl.mem done_tbl idstr then begin
      g.m_dups <- g.m_dups + 1;
      Telemetry.incr "dispatch.dup_results"
    end
    else Hashtbl.replace done_tbl idstr ()
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
      retire w;
      Option.iter
        (fun t ->
          g.m_reissued <- g.m_reissued + 1;
          Telemetry.incr "dispatch.reissued";
          Queue.add t pending)
        w.w_lease;
      w.w_lease <- None;
      w.w_deadline <- 0L
    end
  in
  let task_frame t =
    J.to_string
      (J.Obj
         [ ("op", J.Str "task"); ("kind", J.Str t.Experiment.t_kind);
           ("bench", J.Str t.Experiment.t_bench); ("scale", J.Num scale) ])
  in
  let grant () =
    List.iter
      (fun w ->
        if w.w_alive && w.w_lease = None && not (Queue.is_empty pending) then
          if Faults.fires "dispatch.lease" then begin
            (* Torn lease grant: the channel is severed mid-handshake.
               The task was never popped, the worker is lost to EOF —
               exactly what a coordinator-side fault would cost. *)
            Telemetry.incr "dispatch.lease_faults";
            fail_worker w
          end
          else
            let t = Queue.pop pending in
            match Frame.write w.w_fd (task_frame t) with
            | _ ->
                w.w_lease <- Some t;
                w.w_deadline <-
                  Int64.add (Telemetry.now_ns ())
                    (Int64.mul (Int64.of_int (lease_ms ())) 1_000_000L);
                Telemetry.incr "dispatch.leases"
            | exception Unix.Unix_error _ ->
                Queue.add t pending;
                fail_worker w)
      pool.members
  in
  let handle_done w msg =
    let tid = match J.member "task" msg with Some (J.Str s) -> s | _ -> "" in
    match w.w_lease with
    | Some t when String.equal (Experiment.task_id t) tid ->
        w.w_lease <- None;
        w.w_deadline <- 0L;
        record_done t;
        g.m_completed <- g.m_completed + 1;
        Telemetry.incr "dispatch.completed";
        (match J.member "ok" msg with
        | Some (J.Bool false) -> Telemetry.incr "dispatch.task_errors"
        | _ -> ())
    | _ ->
        (* Unsolicited or mismatched ack: count and drop. *)
        g.m_dups <- g.m_dups + 1;
        Telemetry.incr "dispatch.dup_results"
  in
  let handle_result w =
    match Frame.read w.w_fd with
    | Error _ -> fail_worker w
    | Ok payload -> (
        match J.of_string payload with
        | Ok msg -> (
            match J.member "op" msg with
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
  (* Every member is gone: what is still pending is left to the
     caller's render, whose cache misses compute it in-process at its
     own -j under the ordinary supervision. *)
  let hand_off () =
    let n = Queue.length pending in
    Env.warn_once "dispatch-fallback"
      "frontend-repro: no dispatch workers left; the in-process render \
       finishes the sweep";
    g.m_fallback <- g.m_fallback + n;
    Telemetry.add "dispatch.fallback_tasks" n;
    Queue.clear pending
  in
  let rec loop () =
    grant ();
    let alive = List.filter (fun w -> w.w_alive) pool.members in
    let active = List.filter (fun w -> w.w_lease <> None) alive in
    if active = [] && Queue.is_empty pending then ()
    else if alive = [] then hand_off ()
    else begin
      let now = Telemetry.now_ns () in
      let timeout =
        List.fold_left
          (fun acc w ->
            Float.min acc (Int64.to_float (Int64.sub w.w_deadline now) /. 1e9))
          5.0 active
      in
      let readable =
        match
          Unix.select (List.map (fun w -> w.w_fd) alive) [] []
            (Float.max 0.01 timeout)
        with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun w -> if w.w_alive && List.mem w.w_fd readable then handle_result w)
        alive;
      let now = Telemetry.now_ns () in
      List.iter
        (fun w ->
          if
            w.w_alive && w.w_lease <> None
            && Int64.compare now w.w_deadline > 0
          then fail_worker ~expired:true w)
        pool.members;
      loop ()
    end
  in
  loop ()

let prefetch ?(scale = 1.0) id =
  let n = workers () in
  if n <= 0 then ()
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
            run_tasks ~scale tasks pool)
