(* Protocol and lifecycle tests for the characterization daemon:
   framing (round trip, garbage, torn, oversized), server survival of
   misbehaving and abruptly dying clients, byte-identity of concurrent
   responses against the one-shot renderings, reload semantics, and
   the qcheck property that a reload storm neither loses nor
   duplicates an in-flight response. *)

module C = Repro_core
module S = Repro_core.Server
module J = Repro_util.Json

let scale = 0.02

(* Every test runs against a fresh daemon on a private socket and a
   private cache directory, and restores the process-global toggles
   the server's apply_config touches. *)
let with_server ?(workers = 4) f =
  let tag = Printf.sprintf "%d_%d" (Unix.getpid ()) (Random.int 1_000_000) in
  let sock = Printf.sprintf "_server_test_%s.sock" tag in
  let cache_dir = Printf.sprintf "_server_test_cache_%s" tag in
  let was_dir = C.Cache.dir () in
  let was_enabled = C.Cache.enabled () in
  C.Cache.set_dir cache_dir;
  C.Cache.set_enabled true;
  let config = { (S.current_config ()) with S.scale; jobs = 1 } in
  let t = S.start ~config ~socket:sock ~workers () in
  Fun.protect
    ~finally:(fun () ->
      S.stop t;
      C.Cache.clear ();
      (try Sys.rmdir (Filename.concat cache_dir "journal") with Sys_error _ -> ());
      (try Sys.rmdir cache_dir with Sys_error _ -> ());
      C.Cache.set_dir was_dir;
      C.Cache.set_enabled was_enabled;
      C.Experiment.set_packed true;
      Repro_util.Faults.configure None)
    (fun () -> f (t, sock))

let request conn obj =
  match S.Client.request conn obj with
  | Ok r -> r
  | Error e -> Alcotest.failf "request failed: %s" e

let field name r =
  match J.member name r with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S field" name

let check_ok r = Alcotest.(check bool) "ok" true (field "ok" r = J.Bool true)

let ping ?seq conn =
  let req =
    J.Obj
      (("op", J.Str "ping")
      :: (match seq with Some n -> [ ("seq", J.Num (float_of_int n)) ] | None -> []))
  in
  request conn req

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      List.iter
        (fun payload ->
          ignore (S.Frame.write a payload);
          match S.Frame.read b with
          | Ok got -> Alcotest.(check string) "payload" payload got
          | Error e -> Alcotest.failf "read: %s" (S.Frame.error_to_string e))
        [ "{}"; ""; String.make 100_000 'x'; "\x00\xffbinary\n bytes" ])

let test_frame_torn_and_closed () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Declared 100 bytes, delivered 5, then the writer dies. *)
  ignore (Unix.write_substring a "RSRV1 100\nhello" 0 15);
  Unix.close a;
  (match S.Frame.read b with
  | Error S.Frame.Torn -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Torn");
  (* EOF before any header byte is a clean close, not an error. *)
  (match S.Frame.read b with
  | Error S.Frame.Closed -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Closed");
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Server survival of protocol violations *)

(* A client that sends garbage gets a best-effort error frame and a
   closed connection; the daemon keeps serving everyone else. *)
let test_garbage_frame_survived () =
  with_server (fun (_t, sock) ->
      let bad = S.Client.connect ~socket:sock () in
      let fd = S.Client.fd bad in
      ignore (Unix.write_substring fd "GET / HTTP/1.1\r\n\r\n" 0 18);
      (match S.Frame.read fd with
      | Ok payload ->
          Alcotest.(check bool) "error response" true
            (match J.of_string payload with
            | Ok r -> field "ok" r = J.Bool false
            | Error _ -> false)
      | Error _ -> () (* already closed is acceptable too *));
      (* connection is dead after garbage *)
      (match S.Frame.read fd with
      | Error (S.Frame.Closed | S.Frame.Torn) -> ()
      | Ok _ -> Alcotest.fail "connection should be closed after garbage"
      | Error e -> Alcotest.failf "unexpected: %s" (S.Frame.error_to_string e));
      S.Client.close bad;
      (* the daemon is alive for a fresh client *)
      let good = S.Client.connect ~socket:sock () in
      check_ok (ping good);
      S.Client.close good)

let test_oversized_frame_survived () =
  with_server (fun (_t, sock) ->
      let bad = S.Client.connect ~socket:sock () in
      let fd = S.Client.fd bad in
      (* Declares ~1 GB: must be rejected from the header alone,
         never allocated. *)
      ignore (Unix.write_substring fd "RSRV1 1000000000\n" 0 17);
      (match S.Frame.read fd with
      | Ok payload ->
          Alcotest.(check bool) "error response" true
            (match J.of_string payload with
            | Ok r -> field "ok" r = J.Bool false
            | Error _ -> false)
      | Error _ -> ());
      S.Client.close bad;
      let good = S.Client.connect ~socket:sock () in
      check_ok (ping good);
      S.Client.close good)

(* kill -9 of a client is, at the server's end, an abrupt close: once
   mid-frame (torn request), once right after a request is sent (the
   response write hits EPIPE). Both must leave the daemon, its cache
   and the resume journal fully usable. *)
let test_client_death_mid_request () =
  with_server (fun (_t, sock) ->
      (* death mid-frame *)
      let c1 = S.Client.connect ~socket:sock () in
      ignore (Unix.write_substring (S.Client.fd c1) "RSRV1 4096\n{\"op" 0 15);
      S.Client.close c1;
      (* death between request and response *)
      let c2 = S.Client.connect ~socket:sock () in
      let payload =
        "{\"op\": \"experiment\", \"id\": \"tab2\"}"
      in
      ignore (S.Frame.write (S.Client.fd c2) payload);
      S.Client.close c2;
      (* the daemon still serves, and serves correctly *)
      let c3 = S.Client.connect ~socket:sock () in
      let r =
        request c3 (J.Obj [ ("op", J.Str "experiment"); ("id", J.Str "tab2") ])
      in
      check_ok r;
      let expected = C.Report.run_to_string ~scale ~jobs:1 C.Experiment.Tab2 in
      (match field "text" r with
      | J.Str text -> Alcotest.(check string) "text survives deaths" expected text
      | _ -> Alcotest.fail "text is not a string");
      S.Client.close c3;
      (* cache directory is intact and writable *)
      Alcotest.(check bool) "cache usable" true (C.Cache.entries () >= 0);
      (* the resume journal machinery opens, appends and finishes *)
      match C.Journal.open_run ~name:"server_test" ~fingerprint:"f1" with
      | None -> Alcotest.fail "journal did not open"
      | Some (j, recovered) ->
          Alcotest.(check int) "fresh journal" 0 (List.length recovered);
          C.Journal.append j ~step:"s1" ~payload:"p1";
          C.Journal.finish j)

(* ------------------------------------------------------------------ *)
(* Concurrent byte-identity *)

let test_concurrent_clients_identical () =
  with_server (fun (_t, sock) ->
      let ids = [| "tab1"; "tab2"; "fig1"; "fig4" |] in
      let expected =
        Array.map
          (fun s ->
            C.Report.run_to_string ~scale ~jobs:1
              (Option.get (C.Experiment.of_string s)))
          ids
      in
      let per_client = 6 in
      let client ci =
        let conn = S.Client.connect ~socket:sock () in
        Fun.protect
          ~finally:(fun () -> S.Client.close conn)
          (fun () ->
            List.init per_client (fun k ->
                let which = (ci + k) mod Array.length ids in
                let r =
                  request conn
                    (J.Obj
                       [ ("op", J.Str "experiment");
                         ("id", J.Str ids.(which)) ])
                in
                (field "ok" r = J.Bool true)
                && field "text" r = J.Str expected.(which)))
      in
      let domains = List.init 4 (fun ci -> Domain.spawn (fun () -> client ci)) in
      let results = List.concat_map Domain.join domains in
      Alcotest.(check int) "all answered" (4 * per_client)
        (List.length results);
      Alcotest.(check bool) "all byte-identical" true
        (List.for_all Fun.id results))

(* ------------------------------------------------------------------ *)
(* Reload *)

let test_reload_semantics () =
  with_server (fun (t, sock) ->
      let conn = S.Client.connect ~socket:sock () in
      Fun.protect
        ~finally:(fun () -> S.Client.close conn)
        (fun () ->
          Alcotest.(check int) "generation starts at 0" 0 (S.generation t);
          (* a malformed reload must not half-apply *)
          let bad =
            request conn
              (J.Obj [ ("op", J.Str "reload"); ("scale", J.Num (-1.0)) ])
          in
          Alcotest.(check bool) "bad reload rejected" true
            (field "ok" bad = J.Bool false);
          Alcotest.(check int) "generation unchanged" 0 (S.generation t);
          (* sampling and the unfused path are gone: asking for either
             is refused by name, never applied as a silent no-op *)
          List.iter
            (fun (name, v) ->
              let r = request conn (J.Obj [ ("op", J.Str "reload"); (name, v) ]) in
              Alcotest.(check bool) (name ^ " reload rejected") true
                (field "ok" r = J.Bool false);
              (match field "error" r with
              | J.Str e ->
                  Alcotest.(check bool) (name ^ ": error names the field") true
                    (String.starts_with ~prefix:("reload: " ^ name) e)
              | _ -> Alcotest.fail "error is not a string");
              Alcotest.(check int) (name ^ ": generation unchanged") 0
                (S.generation t))
            [ ("sample", J.Num 0.25); ("fused", J.Bool false) ];
          (* a good reload bumps the generation and echoes the config *)
          let r =
            request conn
              (J.Obj
                 [ ("op", J.Str "reload");
                   ("sample", J.Null);
                   ("scale", J.Num scale) ])
          in
          check_ok r;
          Alcotest.(check bool) "generation bumped" true
            (field "generation" r = J.Num 1.0);
          (* first gated request after the reload stamps the lag *)
          check_ok (ping conn);
          let st = request conn (J.Obj [ ("op", J.Str "stats") ]) in
          check_ok st;
          (match field "update_lag_ms" st with
          | J.Num v -> Alcotest.(check bool) "lag non-negative" true (v >= 0.0)
          | _ -> Alcotest.fail "update_lag_ms is not a number");
          match field "reloads" st with
          | J.Num v -> Alcotest.(check (float 0.0)) "one reload" 1.0 v
          | _ -> Alcotest.fail "reloads is not a number"))

(* [start] refuses the removed features before binding anything. *)
let test_start_rejects_removed () =
  List.iter
    (fun (what, config) ->
      match S.start ~config ~socket:"_server_test_rejected.sock" () with
      | t ->
          S.stop t;
          Alcotest.failf "start accepted %s" what
      | exception Invalid_argument _ ->
          Alcotest.(check bool) (what ^ ": nothing bound") false
            (Sys.file_exists "_server_test_rejected.sock"))
    [ ("sample", { (S.current_config ()) with S.sample = Some 0.25 });
      ("fused=false", { (S.current_config ()) with S.fused = false }) ]

(* The property the quiesce gate exists for: under a storm of
   concurrent reloads, every request still gets exactly one response,
   in order, with its own sequence number — nothing lost, nothing
   duplicated, no torn configuration observed. *)
let qcheck_reload_never_loses_responses =
  QCheck.Test.make ~name:"reload never loses or duplicates a response"
    ~count:5
    QCheck.(pair (int_range 4 12) (int_range 1 4))
    (fun (n_pings, n_reloads) ->
      with_server ~workers:4 (fun (t, sock) ->
          let client () =
            let conn = S.Client.connect ~socket:sock () in
            Fun.protect
              ~finally:(fun () -> S.Client.close conn)
              (fun () ->
                List.init n_pings (fun i ->
                    let r = ping ~seq:i conn in
                    field "ok" r = J.Bool true
                    && field "seq" r = J.Num (float_of_int i)))
          in
          let clients =
            List.init 2 (fun _ -> Domain.spawn (fun () -> client ()))
          in
          let reloader =
            Domain.spawn (fun () ->
                for _ = 1 to n_reloads do
                  ignore (S.reload t (S.config t))
                done)
          in
          let responses = List.concat_map Domain.join clients in
          Domain.join reloader;
          List.length responses = 2 * n_pings
          && List.for_all Fun.id responses
          && S.generation t >= n_reloads))

(* ------------------------------------------------------------------ *)

let qcheck tests = Qseed.all tests

let () =
  Alcotest.run "server"
    [ ("frame",
       [ Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
         Alcotest.test_case "torn and closed" `Quick
           test_frame_torn_and_closed ]);
      ("survival",
       [ Alcotest.test_case "garbage frame" `Quick
           test_garbage_frame_survived;
         Alcotest.test_case "oversized frame" `Quick
           test_oversized_frame_survived;
         Alcotest.test_case "client death mid-request" `Quick
           test_client_death_mid_request ]);
      ("concurrency",
       [ Alcotest.test_case "4 clients byte-identical" `Slow
           test_concurrent_clients_identical ]);
      ("reload",
       Alcotest.test_case "semantics and update lag" `Quick
         test_reload_semantics
       :: Alcotest.test_case "start rejects removed features" `Quick
            test_start_rejects_removed
       :: qcheck [ qcheck_reload_never_loses_responses ]) ]
