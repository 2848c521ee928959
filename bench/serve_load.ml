(* Load generator for the characterization daemon (--serve-bench):
   spawn an in-process Repro_core.Server on a private Unix socket,
   drive it with concurrent clients in closed- or open-loop mode,
   reload the configuration mid-run, and record request-latency
   percentiles, throughput and the measured update lag. Every
   response is compared byte-for-byte against the one-shot rendering
   (exactly what the CLI prints), so [responses_identical] is a
   correctness gate. *)

module C = Repro_core
module T = Repro_util.Telemetry
module J = Repro_util.Json

let ms_since t0 = Int64.to_float (Int64.sub (T.now_ns ()) t0) /. 1e6

type cfg = {
  sb_clients : int;
  sb_mode : [ `Closed | `Open ];
  sb_requests : int; (* total across clients *)
  sb_rps : float; (* open-loop aggregate arrival rate *)
}

let default_cfg =
  { sb_clients = 4; sb_mode = `Closed; sb_requests = 40; sb_rps = 50.0 }

type result = {
  sr_clients : int;
  sr_mode : string;
  sr_requests : int; (* responses received ok *)
  sr_wall_ms : float;
  sr_throughput : float; (* ok responses per second *)
  sr_p50 : float;
  sr_p90 : float;
  sr_p99 : float;
  sr_update_lag_ms : float;
  sr_errors : int;
  sr_identical : bool;
}

let run ~scale ~jobs cfg =
  let module S = C.Server in
  let render id = C.Report.run_to_string ~scale ~jobs id in
  let sock = Printf.sprintf "_serve_bench_%d.sock" (Unix.getpid ()) in
  let ids = [| "fig1"; "tab1"; "fig2"; "fig3"; "fig4"; "tab2" |] in
  (* The one-shot references also warm the in-process memo the daemon
     shares, so the load phase measures dispatch and protocol, not
     first-trace cost. *)
  let reference =
    Array.map (fun s -> render (Option.get (C.Experiment.of_string s))) ids
  in
  let per_client = max 1 (cfg.sb_requests / cfg.sb_clients) in
  let total = per_client * cfg.sb_clients in
  let server =
    S.start
      ~config:{ (S.current_config ()) with S.scale; jobs }
      ~socket:sock
      ~workers:(min 16 (cfg.sb_clients + 1))
      ()
  in
  let mode = match cfg.sb_mode with `Closed -> "closed" | `Open -> "open" in
  Printf.printf
    "==== serve bench: %d %s-loop clients, %d requests over %s ====\n%!"
    cfg.sb_clients mode total sock;
  let responses = Atomic.make 0 (* every outcome, ok or not *)
  and ok = Atomic.make 0
  and errors = Atomic.make 0
  and mismatches = Atomic.make 0 in
  let t_start = T.now_ns () and wall_start = Unix.gettimeofday () in
  let with_conn f =
    let conn = S.Client.connect ~socket:sock () in
    Fun.protect ~finally:(fun () -> S.Client.close conn) (fun () -> f conn)
  in
  let client ci conn =
    let lats = Array.make per_client nan in
    for k = 0 to per_client - 1 do
      let idx = (ci * per_client) + k in
      let which = idx mod Array.length ids in
      (* Open loop: arrivals on a fixed schedule, latency from the
         scheduled arrival (queueing included). Closed loop:
         back-to-back, latency is the request round trip. *)
      let target =
        match cfg.sb_mode with
        | `Closed -> None
        | `Open ->
            let slot = float_of_int (ci + (k * cfg.sb_clients)) in
            let t = wall_start +. (slot /. cfg.sb_rps) in
            let now = Unix.gettimeofday () in
            if now < t then Unix.sleepf (t -. now);
            Some t
      in
      let t0 = T.now_ns () in
      let resp =
        S.Client.request conn
          (J.Obj
             [ ("op", J.Str "experiment"); ("id", J.Str ids.(which));
               ("seq", J.Num (float_of_int idx)) ])
      in
      Atomic.incr responses;
      match resp with
      | Ok resp -> (
          lats.(k) <-
            (match target with
            | None -> ms_since t0
            | Some t -> (Unix.gettimeofday () -. t) *. 1000.0);
          match (J.member "ok" resp, J.member "text" resp) with
          | Some (J.Bool true), Some (J.Str text) ->
              Atomic.incr ok;
              if not (String.equal text reference.(which)) then
                Atomic.incr mismatches
          | _ -> Atomic.incr errors)
      | Error _ -> Atomic.incr errors
    done;
    lats
  in
  (* Mid-run zero-downtime reload of an identical configuration, once
     half the responses are in: the rest run under the bumped
     generation and stamp a load-measured update lag. *)
  let reloader =
    Domain.spawn (fun () ->
        with_conn (fun conn ->
            while Atomic.get responses < total / 2 do
              Unix.sleepf 0.002
            done;
            match S.Client.request conn (J.Obj [ ("op", J.Str "reload") ]) with
            | Ok _ -> ()
            | Error _ -> Atomic.incr errors))
  in
  let lat_arrays =
    List.init cfg.sb_clients (fun ci ->
        Domain.spawn (fun () -> with_conn (client ci)))
    |> List.map Domain.join
  in
  Domain.join reloader;
  let wall_ms = ms_since t_start in
  (* Make sure some gated request completed after the reload, then
     read the measured lag back through the stats op. *)
  let update_lag, errors_after =
    with_conn (fun conn ->
        ignore (S.Client.request conn (J.Obj [ ("op", J.Str "ping") ]));
        match S.Client.request conn (J.Obj [ ("op", J.Str "stats") ]) with
        | Ok st -> (
            match J.member "update_lag_ms" st with
            | Some (J.Num v) -> (v, 0)
            | _ -> (nan, 1))
        | Error _ -> (nan, 1))
  in
  S.stop server;
  let lats =
    Array.of_list
      (List.filter (fun v -> not (Float.is_nan v))
         (Array.to_list (Array.concat lat_arrays)))
  in
  let p50, p90, p99 =
    if Array.length lats = 0 then (nan, nan, nan)
    else
      match Repro_util.Stats.percentiles lats [ 50.0; 90.0; 99.0 ] with
      | [ a; b; c ] -> (a, b, c)
      | _ -> (nan, nan, nan)
  in
  let n_ok = Atomic.get ok and n_mism = Atomic.get mismatches in
  let n_errors = Atomic.get errors + errors_after in
  let identical = n_mism = 0 && n_errors = 0 && n_ok = total in
  let throughput =
    if wall_ms > 0.0 then float_of_int n_ok /. (wall_ms /. 1000.0) else 0.0
  in
  Printf.printf
    "  %d/%d ok, %d errors, %d mismatches\n\
    \  latency p50 %.2fms  p90 %.2fms  p99 %.2fms\n\
    \  throughput %.1f req/s, update lag %.2fms, wall %.1fms\n\
    \  responses identical to one-shot renderings: %b\n\n%!"
    n_ok total n_errors n_mism p50 p90 p99 throughput update_lag wall_ms
    identical;
  { sr_clients = cfg.sb_clients;
    sr_mode = mode;
    sr_requests = n_ok;
    sr_wall_ms = wall_ms;
    sr_throughput = throughput;
    sr_p50 = p50;
    sr_p90 = p90;
    sr_p99 = p99;
    sr_update_lag_ms = update_lag;
    sr_errors = n_errors;
    sr_identical = identical }
