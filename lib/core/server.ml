module Json = Repro_util.Json
module Telemetry = Repro_util.Telemetry
module Env = Repro_util.Env
module Faults = Repro_util.Faults

(* ------------------------------------------------------------------ *)
(* Frames                                                             *)
(* ------------------------------------------------------------------ *)

(* The framing layer lives in [Frame] (shared with [Dispatch]); the
   alias keeps [Server.Frame] as the public name the daemon's clients
   and tests have always used. *)
module Frame = Frame

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  scale : float;
  jobs : int;
  sample : float option;
  faults : string option;
  packed : bool;
  fused : bool;
}

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

let current_config () =
  { scale = Env.float_positive ~name:"REPRO_SCALE" ~default:1.0 ();
    jobs = Engine.default_jobs ();
    sample = None;
    faults = Faults.spec ();
    packed = Experiment.packed_enabled ();
    fused = true }

let env_config () =
  let scale = Env.float_positive ~name:"REPRO_SCALE" ~default:1.0 () in
  let jobs =
    match Env.int_clamped ~name:"REPRO_JOBS" ~min:1 ~max:64 () with
    | Some j -> j
    | None -> Engine.default_jobs ()
  in
  let faults =
    match Sys.getenv_opt "REPRO_FAULTS" with
    | None | Some "" -> None
    | Some s -> Some s
  in
  { scale; jobs; sample = None; faults;
    packed = Env.flag ~name:"REPRO_PACKED" ~default:true;
    fused = true }

(* [sample] and [fused] name execution paths that no longer exist:
   every sweep is exact and fused. The fields stay so existing callers
   keep compiling, but a configuration asking for either removed path
   is refused by name, never silently run on the exact path. *)
let removed_feature cfg =
  if cfg.sample <> None then
    Some "sample: representative-region sampling was removed; sweeps are \
          always exact"
  else if not cfg.fused then
    Some "fused=false: the unfused per-config sweep path was removed; \
          sweeps always run the fused kernels"
  else None

let check_config ~where cfg =
  match removed_feature cfg with
  | Some msg -> invalid_arg (where ^ ": " ^ msg)
  | None -> ()

(* Push a configuration into the process-wide toggles. Called only
   from inside the reload critical section (or before any worker is
   spawned), so no request can observe a half-applied set. *)
let apply_config cfg =
  Engine.set_default_jobs cfg.jobs;
  Experiment.set_packed cfg.packed;
  Faults.configure cfg.faults

let config_json cfg =
  Json.Obj
    [ ("scale", Json.Num cfg.scale);
      ("jobs", Json.Num (float_of_int cfg.jobs));
      ("faults", (match cfg.faults with Some s -> Json.Str s | None -> Json.Null));
      ("packed", Json.Bool cfg.packed) ]

(* ------------------------------------------------------------------ *)
(* Server state                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  listeners : Unix.file_descr list;
  sock_path : string option;
  tcp_port : int option;
  n_workers : int;
  stop_flag : bool Atomic.t;
  mutable domains : unit Domain.t list;
  tele : Telemetry.buffer array;  (* slot [i] written once by worker [i] *)
  (* Reload gate. [lock] guards every mutable field below; [cond] is
     broadcast when [active] drains to zero (reloader wakes) and when
     a reload finishes (parked requests wake). *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable cfg : config;
  mutable active : int;  (* gated requests currently executing *)
  mutable waiting : int;  (* gated requests parked behind a reload *)
  mutable reloading : bool;
  mutable generation : int;
  mutable reload_accepted_ns : int64;  (* of the generation in force *)
  mutable lag_gen : int;  (* newest generation whose lag is recorded *)
  mutable lag_ms : float;
  mutable stopped : bool;
  started_ns : int64;
  requests : int Atomic.t;
  proto_errors : int Atomic.t;
  reloads : int Atomic.t;
  bytes_in : int Atomic.t;
  bytes_out : int Atomic.t;
  conns : int Atomic.t;
}

let sock_path t = t.sock_path
let tcp_port t = t.tcp_port
let request_stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let config t = Mutex.protect t.lock (fun () -> t.cfg)
let generation t = Mutex.protect t.lock (fun () -> t.generation)

let update_lag_ms t =
  Mutex.protect t.lock (fun () ->
      if t.lag_gen >= 0 then Some t.lag_ms else None)

(* --- reload gate ------------------------------------------------- *)

(* A gated request parks while a reload is swapping configuration,
   then snapshots the generation and config it will run under. *)
let enter t =
  Mutex.lock t.lock;
  t.waiting <- t.waiting + 1;
  while t.reloading do
    Condition.wait t.cond t.lock
  done;
  t.waiting <- t.waiting - 1;
  t.active <- t.active + 1;
  let snapshot = (t.generation, t.cfg) in
  Mutex.unlock t.lock;
  snapshot

let leave t =
  Mutex.lock t.lock;
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* First request completed under a generation stamps that
   generation's update lag: reload-accepted to response-complete,
   quiesce drain included. A request that snapshotted an older
   generation never stamps a newer one. *)
let note_completed t gen =
  Mutex.lock t.lock;
  if gen = t.generation && t.lag_gen < gen then begin
    t.lag_gen <- gen;
    t.lag_ms <-
      Int64.to_float (Int64.sub (Telemetry.now_ns ()) t.reload_accepted_ns)
      /. 1e6
  end;
  Mutex.unlock t.lock

let gated t f =
  let gen, cfg = enter t in
  let result = Fun.protect ~finally:(fun () -> leave t) (fun () -> f cfg) in
  note_completed t gen;
  (gen, result)

let reload t cfg =
  check_config ~where:"Server.reload" cfg;
  let accepted = Telemetry.now_ns () in
  Mutex.lock t.lock;
  while t.reloading do
    Condition.wait t.cond t.lock
  done;
  t.reloading <- true;
  while t.active > 0 do
    Condition.wait t.cond t.lock
  done;
  let cfg = { cfg with jobs = clamp_jobs cfg.jobs } in
  apply_config cfg;
  t.cfg <- cfg;
  t.generation <- t.generation + 1;
  t.reload_accepted_ns <- accepted;
  t.reloading <- false;
  let gen = t.generation in
  Atomic.incr t.reloads;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  Telemetry.incr "server.reloads";
  gen

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let member_string name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let ns_to_ms a b = Int64.to_float (Int64.sub b a) /. 1e6

let stats_json t =
  let engine = Engine.stats () in
  let active, waiting, gen, lag =
    Mutex.protect t.lock (fun () ->
        (t.active, t.waiting, t.generation,
         if t.lag_gen >= 0 then Json.Num t.lag_ms else Json.Null))
  in
  [ ("generation", Json.Num (float_of_int gen));
    ("requests", Json.Num (float_of_int (Atomic.get t.requests)));
    ("protocol_errors", Json.Num (float_of_int (Atomic.get t.proto_errors)));
    ("reloads", Json.Num (float_of_int (Atomic.get t.reloads)));
    ("active", Json.Num (float_of_int active));
    ("queue_depth", Json.Num (float_of_int (active + waiting)));
    ("connections", Json.Num (float_of_int (Atomic.get t.conns)));
    ("bytes_in", Json.Num (float_of_int (Atomic.get t.bytes_in)));
    ("bytes_out", Json.Num (float_of_int (Atomic.get t.bytes_out)));
    ("update_lag_ms", lag);
    ("uptime_ms", Json.Num (ns_to_ms t.started_ns (Telemetry.now_ns ())));
    ("workers", Json.Num (float_of_int t.n_workers));
    ("engine",
     Json.Obj
       [ ("tasks_run", Json.Num (float_of_int engine.Engine.tasks_run));
         ("batches", Json.Num (float_of_int engine.Engine.batches));
         ("tasks_retried", Json.Num (float_of_int engine.Engine.tasks_retried));
         ("tasks_failed", Json.Num (float_of_int engine.Engine.tasks_failed));
         ("cache_hits", Json.Num (float_of_int engine.Engine.cache_hits));
         ("cache_misses", Json.Num (float_of_int engine.Engine.cache_misses)) ]);
    ("cache",
     Json.Obj
       [ ("entries", Json.Num (float_of_int (Cache.entries ())));
         ("quarantined", Json.Num (float_of_int (Cache.quarantined ()))) ]) ]

(* Build the reload target: the current (or env) config overridden by
   the request's explicit fields. Malformed fields are errors, not
   silent fallbacks — a reload that half-parsed must not half-apply. *)
let parse_reload base req =
  let ( let* ) = Result.bind in
  let num name k acc =
    match Json.member name req with
    | None -> Ok acc
    | Some (Json.Num f) -> k f acc
    | Some _ -> Error (name ^ " must be a number")
  in
  let boolean name k acc =
    match Json.member name req with
    | None -> Ok acc
    | Some (Json.Bool b) -> Ok (k b acc)
    | Some _ -> Error (name ^ " must be a boolean")
  in
  let* cfg =
    num "scale"
      (fun f acc ->
        if Float.is_finite f && f > 0.0 then Ok { acc with scale = f }
        else Error "scale must be finite and positive")
      base
  in
  let* cfg =
    num "jobs"
      (fun f acc ->
        let j = int_of_float f in
        if float_of_int j <> f || j < 1 then Error "jobs must be a positive integer"
        else Ok { acc with jobs = clamp_jobs j })
      cfg
  in
  let* cfg =
    match Json.member "sample" req with
    | None | Some Json.Null -> Ok cfg
    | Some (Json.Num f) -> Ok { cfg with sample = Some f }
    | Some _ -> Error "sample must be null"
  in
  let* cfg =
    match Json.member "faults" req with
    | None -> Ok cfg
    | Some Json.Null -> Ok { cfg with faults = None }
    | Some (Json.Str s) -> Ok { cfg with faults = (if s = "" then None else Some s) }
    | Some _ -> Error "faults must be a string or null"
  in
  let* cfg = boolean "packed" (fun b acc -> { acc with packed = b }) cfg in
  let* cfg = boolean "fused" (fun b acc -> { acc with fused = b }) cfg in
  match removed_feature cfg with Some msg -> Error msg | None -> Ok cfg

type action = Continue | Shutdown

let dispatch t payload =
  Atomic.incr t.requests;
  Telemetry.incr "server.requests";
  Telemetry.with_span "server.request" (fun () ->
      match Json.of_string payload with
      | Error msg ->
          Atomic.incr t.proto_errors;
          (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str ("invalid json: " ^ msg)) ],
           Continue)
      | Ok req ->
          let seq =
            match Json.member "seq" req with
            | Some s -> [ ("seq", s) ]
            | None -> []
          in
          let ok fields = Json.Obj ((("ok", Json.Bool true) :: fields) @ seq) in
          let err msg =
            Atomic.incr t.proto_errors;
            (Json.Obj ((("ok", Json.Bool false) :: [ ("error", Json.Str msg) ]) @ seq),
             Continue)
          in
          let run_text op extra f =
            let t0 = Telemetry.now_ns () in
            match gated t f with
            | (gen, text) ->
                (ok
                   ([ ("op", Json.Str op) ] @ extra
                    @ [ ("generation", Json.Num (float_of_int gen));
                        ("wall_ms", Json.Num (ns_to_ms t0 (Telemetry.now_ns ())));
                        ("text", Json.Str text) ]),
                 Continue)
            | exception Failure.Error f -> err ("failed: " ^ Failure.to_string f)
            | exception e when Failure.capturable e ->
                err ("failed: " ^ Printexc.to_string e)
          in
          match member_string "op" req with
          | None -> err "missing op"
          | Some "ping" ->
              let gen, () = gated t (fun _cfg -> ()) in
              (ok [ ("op", Json.Str "ping"); ("generation", Json.Num (float_of_int gen)) ],
               Continue)
          | Some "experiment" -> (
              match member_string "id" req with
              | None -> err "experiment: missing id"
              | Some ids -> (
                  match Experiment.of_string ids with
                  | None -> err ("unknown experiment: " ^ ids)
                  | Some id ->
                      run_text "experiment"
                        [ ("id", Json.Str ids) ]
                        (fun cfg ->
                          Report.run_to_string ~scale:cfg.scale ~jobs:cfg.jobs id)))
          | Some "report" ->
              run_text "report" [] (fun cfg ->
                  Report.run_all_to_string ~scale:cfg.scale ~jobs:cfg.jobs ())
          | Some "stats" -> (ok (("op", Json.Str "stats") :: stats_json t), Continue)
          | Some "reload" -> (
              let base =
                match Json.member "env" req with
                | Some (Json.Bool true) -> env_config ()
                | _ -> config t
              in
              match parse_reload base req with
              | Error msg -> err ("reload: " ^ msg)
              | Ok cfg ->
                  let gen = reload t cfg in
                  (ok
                     [ ("op", Json.Str "reload");
                       ("generation", Json.Num (float_of_int gen));
                       ("config", config_json cfg) ],
                   Continue))
          | Some "shutdown" -> (ok [ ("op", Json.Str "shutdown") ], Shutdown)
          | Some op -> err ("unknown op: " ^ op))

(* ------------------------------------------------------------------ *)
(* Connection handling                                                *)
(* ------------------------------------------------------------------ *)

(* Block until [fd] is readable or the server is stopping. The 50ms
   slice bounds how long an idle connection can delay shutdown. *)
let rec wait_readable t fd =
  if Atomic.get t.stop_flag then `Stop
  else
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> wait_readable t fd
    | _ -> `Readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable t fd

let frame_overhead payload_len =
  String.length Frame.magic + String.length (string_of_int payload_len) + 1

let handle_conn t fd =
  Atomic.incr t.conns;
  Telemetry.incr "server.connections";
  let closing = ref false in
  (try
     while (not !closing) && not (Atomic.get t.stop_flag) do
       match wait_readable t fd with
       | `Stop -> closing := true
       | `Readable -> (
           match Frame.read fd with
           | Error Frame.Closed -> closing := true
           | Error e ->
               (* Garbage, torn or oversized framing: answer
                  best-effort, then drop the connection — there is no
                  way back to a frame boundary. The server survives;
                  only this client's connection dies. *)
               Atomic.incr t.proto_errors;
               Telemetry.incr "server.protocol_errors";
               let payload =
                 Json.to_string
                   (Json.Obj
                      [ ("ok", Json.Bool false);
                        ("error", Json.Str (Frame.error_to_string e)) ])
               in
               (try ignore (Frame.write fd payload)
                with Unix.Unix_error _ -> ());
               closing := true
           | Ok payload ->
               let n_in = String.length payload + frame_overhead (String.length payload) in
               ignore (Atomic.fetch_and_add t.bytes_in n_in);
               Telemetry.add "server.bytes_in" n_in;
               let response, action = dispatch t payload in
               let out = Json.to_string response in
               let n_out = Frame.write fd out in
               ignore (Atomic.fetch_and_add t.bytes_out n_out);
               Telemetry.add "server.bytes_out" n_out;
               (match action with
                | Continue -> ()
                | Shutdown ->
                    closing := true;
                    request_stop t))
     done
   with Unix.Unix_error _ ->
     (* EPIPE / ECONNRESET on the response write: the client died
        mid-request (kill -9). Its work is already memoized for the
        next client; nothing to unwind. *)
     ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.conns

let worker t i =
  Fun.protect
    ~finally:(fun () -> t.tele.(i) <- Telemetry.export ())
    (fun () ->
      while not (Atomic.get t.stop_flag) do
        match Unix.select t.listeners [] [] 0.05 with
        | [], _, _ -> ()
        | ready, _, _ ->
            List.iter
              (fun lfd ->
                (* Listeners are non-blocking: when several workers
                   wake for one pending connection, the losers get
                   EAGAIN and go back to select. *)
                match Unix.accept ~cloexec:true lfd with
                | fd, _ -> handle_conn t fd
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                       | Unix.ECONNABORTED), _, _) -> ())
              ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            (* A listener was closed under us: we are stopping. *)
            Atomic.set t.stop_flag true
      done)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, port)

let start ?config ?socket ?tcp ?(workers = 4) () =
  (* A client that vanishes between our read and our write must be an
     EPIPE on that connection, never a process-wide SIGPIPE kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let cfg =
    match config with Some c -> { c with jobs = clamp_jobs c.jobs } | None -> current_config ()
  in
  check_config ~where:"Server.start" cfg;
  let socket =
    match (socket, tcp) with None, None -> Some "_serve.sock" | _ -> socket
  in
  let unix_l = Option.map listen_unix socket in
  let tcp_l = Option.map listen_tcp tcp in
  let listeners =
    List.filter_map Fun.id [ unix_l; Option.map fst tcp_l ]
  in
  apply_config cfg;
  let n_workers = max 1 (min 16 workers) in
  let now = Telemetry.now_ns () in
  let t =
    { listeners;
      sock_path = socket;
      tcp_port = Option.map snd tcp_l;
      n_workers;
      stop_flag = Atomic.make false;
      domains = [];
      tele = Array.make n_workers Telemetry.empty_buffer;
      lock = Mutex.create ();
      cond = Condition.create ();
      cfg;
      active = 0;
      waiting = 0;
      reloading = false;
      generation = 0;
      reload_accepted_ns = now;
      lag_gen = -1;
      lag_ms = 0.0;
      stopped = false;
      started_ns = now;
      requests = Atomic.make 0;
      proto_errors = Atomic.make 0;
      reloads = Atomic.make 0;
      bytes_in = Atomic.make 0;
      bytes_out = Atomic.make 0;
      conns = Atomic.make 0 }
  in
  t.domains <- List.init n_workers (fun i -> Domain.spawn (fun () -> worker t i));
  t

let wait ?(poll_s = 0.2) ?(on_tick = fun () -> ()) t =
  while not (Atomic.get t.stop_flag) do
    on_tick ();
    Unix.sleepf poll_s
  done

let stop t =
  request_stop t;
  let already = Mutex.protect t.lock (fun () ->
      let v = t.stopped in
      t.stopped <- true;
      v)
  in
  if not already then begin
    List.iter Domain.join t.domains;
    t.domains <- [];
    if Telemetry.enabled () then Array.iter Telemetry.absorb t.tele;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    match t.sock_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Client                                                             *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = { fd : Unix.file_descr }

  let connect ?(retry_for = 0.0) ?socket ?tcp () =
    let addr =
      match (socket, tcp) with
      | Some path, _ -> Unix.ADDR_UNIX path
      | None, Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | None, None -> invalid_arg "Server.Client.connect: no endpoint"
    in
    let domain =
      match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
    in
    let deadline = Unix.gettimeofday () +. retry_for in
    (* Same jittered-backoff discipline as the dispatch layer's remote
       workers: a daemon that is still binding its socket sees a few
       quick probes, a daemon that is seconds away sees geometrically
       sparser ones — and concurrent clients (seeded by pid) do not
       retry in lockstep. *)
    let backoff =
      Repro_util.Backoff.create ~base_ms:25.0 ~max_ms:1_000.0
        ~seed:(Unix.getpid ()) ()
    in
    let rec attempt () =
      let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> { fd }
      | exception
          Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        when Unix.gettimeofday () < deadline ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Repro_util.Backoff.sleep backoff;
          attempt ()
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    attempt ()

  let fd c = c.fd

  let request_raw c payload =
    ignore (Frame.write c.fd payload);
    Frame.read c.fd

  let request c j =
    match request_raw c (Json.to_string j) with
    | Error e -> Error (Frame.error_to_string e)
    | Ok s -> (
        match Json.of_string s with
        | Ok j -> Ok j
        | Error m -> Error ("invalid response json: " ^ m))

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
