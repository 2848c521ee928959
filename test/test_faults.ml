(* Supervised execution under fault injection: the Faults registry
   itself, Engine retry/timeout/classification, crash-safe cache
   recovery (torn writes, quarantine), the resume journal, and the
   end-to-end property the whole layer exists for — a fault-torture
   run either completes with bit-identical tables or reports a
   structured, visible hole, never silently wrong data. *)

module Faults = Repro_util.Faults
module C = Repro_core
module W = Repro_workload

(* Every test that flips process-global supervision state restores it
   on the way out, including on failure: later tests (and the other
   test binaries' idioms) assume a quiet default. *)
let protected f =
  Fun.protect
    ~finally:(fun () ->
      Faults.configure None;
      C.Engine.set_retries 2;
      C.Engine.set_timeout_ms None;
      C.Experiment.set_strict false)
    f

let with_temp_cache f =
  let dir =
    Printf.sprintf "_faults_test_cache_%d_%d" (Unix.getpid ()) (Random.int 1_000_000)
  in
  let was_dir = C.Cache.dir () in
  let was_enabled = C.Cache.enabled () in
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      C.Cache.clear ();
      (try Sys.rmdir (Filename.concat dir "journal") with Sys_error _ -> ());
      (try Sys.rmdir dir with Sys_error _ -> ());
      C.Cache.set_dir was_dir;
      C.Cache.set_enabled was_enabled)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Faults registry *)

let test_faults_disabled () =
  protected (fun () ->
      Faults.configure None;
      Alcotest.(check bool) "inactive" false (Faults.active ());
      Alcotest.(check bool) "never fires" false (Faults.fires "engine.task"))

let test_faults_site_scoping () =
  protected (fun () ->
      Faults.configure (Some "cache.read:1.0:7");
      Alcotest.(check bool) "active" true (Faults.active ());
      Alcotest.(check bool) "scoped site fires" true (Faults.fires "cache.read");
      Alcotest.(check bool) "other site quiet" false
        (Faults.fires "engine.task");
      Faults.configure (Some "all:1.0:7");
      Alcotest.(check bool) "all covers every site" true
        (List.for_all Faults.fires Faults.sites))

(* The network-chaos sites (remote dispatch) are first-class registry
   members: they parse, scope, and clamp exactly like every other
   site, so REPRO_FAULTS replays network failures deterministically. *)
let test_faults_dispatch_network_sites () =
  protected (fun () ->
      List.iter
        (fun site ->
          Alcotest.(check bool)
            (site ^ " registered") true (List.mem site Faults.sites);
          Faults.configure (Some (site ^ ":1.0:3"));
          Alcotest.(check bool) (site ^ " fires when scoped") true
            (Faults.fires site);
          Alcotest.(check bool) (site ^ " leaves others quiet") false
            (Faults.fires "dispatch.spawn"))
        [ "dispatch.connect"; "dispatch.heartbeat"; "dispatch.payload" ];
      (* Out-of-range probability clamps (warn-once), like every site. *)
      Faults.configure (Some "dispatch.payload:3.5:9");
      Alcotest.(check (option string)) "probability clamped"
        (Some "dispatch.payload:1:9") (Faults.spec ());
      Faults.configure (Some "dispatch.heartbeat:-0.5:9");
      Alcotest.(check (option string)) "negative probability clamped"
        (Some "dispatch.heartbeat:0:9") (Faults.spec ());
      Alcotest.(check bool) "clamped-to-zero never fires" false
        (Faults.fires "dispatch.heartbeat"))

let test_faults_malformed_entries () =
  protected (fun () ->
      (* Unknown site, bad probability, bad seed, wrong arity: each
         warns (once) and is dropped; the config ends up inert. *)
      Faults.configure (Some "nonsense.site:0.5:1,engine.task:zap:1,a:b");
      Alcotest.(check bool) "all entries dropped" false (Faults.active ());
      Alcotest.(check (option string)) "no spec survives" None (Faults.spec ());
      (* Out-of-range probability is clamped, not dropped. *)
      Faults.configure (Some "engine.task:7.5:3");
      Alcotest.(check (option string)) "clamped to 1"
        (Some "engine.task:1:3") (Faults.spec ());
      Alcotest.(check bool) "prob 1 always fires" true
        (Faults.fires "engine.task"))

let test_faults_deterministic () =
  protected (fun () ->
      let sequence () =
        Faults.configure (Some "engine.task:0.3:1234");
        List.init 200 (fun _ -> Faults.fires "engine.task")
      in
      let a = sequence () and b = sequence () in
      Alcotest.(check (list bool)) "same seed, same draws" a b;
      Alcotest.(check bool) "some fired" true (List.mem true a);
      Alcotest.(check bool) "some did not" true (List.mem false a);
      Faults.configure (Some "engine.task:0.3:99");
      let c = List.init 200 (fun _ -> Faults.fires "engine.task") in
      Alcotest.(check bool) "different seed, different draws" true (a <> c))

(* ------------------------------------------------------------------ *)
(* Engine supervision *)

let test_retry_absorbs_transient () =
  protected (fun () ->
      (* 30% failure per attempt, 8 retries: the chance any of the 20
         tasks exhausts its budget is ~20 * 0.3^9 < 0.04%. *)
      Faults.configure (Some "engine.task:0.3:42");
      let s0 = C.Engine.stats () in
      let xs = List.init 20 Fun.id in
      let rs =
        C.Engine.map_result ~jobs:4
          ~policy:{ retries = 8; backoff_ms = 0.0; timeout_ms = None }
          (fun x -> x * x)
          xs
      in
      let s1 = C.Engine.stats () in
      Alcotest.(check (list int)) "all survived, values exact"
        (List.map (fun x -> x * x) xs)
        (List.map (function Ok v -> v | Error _ -> -1) rs);
      Alcotest.(check bool) "retries actually happened" true
        (s1.tasks_retried > s0.tasks_retried))

let test_retry_exhaustion_is_structured () =
  protected (fun () ->
      Faults.configure (Some "engine.task:1.0:1");
      let s0 = C.Engine.stats () in
      let rs =
        C.Engine.map_result ~jobs:1
          ~policy:{ retries = 3; backoff_ms = 0.0; timeout_ms = None }
          (fun x -> x)
          [ 1 ]
      in
      let s1 = C.Engine.stats () in
      (match rs with
      | [ Error fl ] ->
          Alcotest.(check bool) "transient class" true
            (fl.C.Failure.klass = C.Failure.Transient);
          Alcotest.(check int) "all four attempts recorded" 4
            fl.C.Failure.attempts;
          Alcotest.(check string) "site" "engine.task" fl.C.Failure.site
      | _ -> Alcotest.fail "expected exactly one Error");
      Alcotest.(check int) "three retries counted" 3
        (s1.tasks_retried - s0.tasks_retried);
      Alcotest.(check int) "one failure counted" 1
        (s1.tasks_failed - s0.tasks_failed))

let test_timeout_is_detected_not_retried () =
  protected (fun () ->
      let s0 = C.Engine.stats () in
      let rs =
        C.Engine.map_result ~jobs:1
          ~policy:{ retries = 5; backoff_ms = 0.0; timeout_ms = Some 1 }
          (fun () -> Unix.sleepf 0.02)
          [ () ]
      in
      let s1 = C.Engine.stats () in
      (match rs with
      | [ Error fl ] ->
          Alcotest.(check bool) "timeout class" true
            (fl.C.Failure.klass = C.Failure.Timeout)
      | [ Ok () ] -> Alcotest.fail "overrunning result not discarded"
      | _ -> Alcotest.fail "expected one result");
      Alcotest.(check int) "counted as timed out" 1
        (s1.tasks_timed_out - s0.tasks_timed_out);
      Alcotest.(check int) "deterministic slowness is never retried" 0
        (s1.tasks_retried - s0.tasks_retried))

let test_map_raises_original_after_retries () =
  protected (fun () ->
      C.Engine.set_retries 2;
      let boom = Stdlib.Failure "boom" in
      (* Stdlib.Failure classifies Fatal: no retry, first raise wins. *)
      (match C.Engine.map ~jobs:2 (fun _ -> raise boom) [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected the task exception"
      | exception Stdlib.Failure m ->
          Alcotest.(check string) "original exception" "boom" m))

let qcheck_supervised_identity =
  QCheck.Test.make
    ~name:"map_result under faults: every Ok exact, every Error transient"
    ~count:30
    QCheck.(triple (int_range 1 4) (int_range 0 10000) (float_range 0.0 0.6))
    (fun (jobs, seed, prob) ->
      protected (fun () ->
          Faults.configure
            (Some (Printf.sprintf "engine.task:%f:%d" prob seed));
          let xs = List.init 12 Fun.id in
          let rs =
            C.Engine.map_result ~jobs
              ~policy:{ retries = 8; backoff_ms = 0.0; timeout_ms = None }
              (fun x -> (x * 7919) mod 1009)
              xs
          in
          List.for_all2
            (fun x r ->
              match r with
              | Ok v -> v = (x * 7919) mod 1009
              | Error fl -> fl.C.Failure.klass = C.Failure.Transient)
            xs rs))

(* ------------------------------------------------------------------ *)
(* Crash-safe cache *)

let profile = W.Suites.find "FT"
let cache_key () = C.Cache.key ~profile ~scale:0.33 ~kind:"faults-test"

let test_cache_roundtrip_heals () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          C.Cache.store k [ 1; 2; 3 ];
          Alcotest.(check (option (list int))) "clean roundtrip"
            (Some [ 1; 2; 3 ]) (C.Cache.find k)))

let test_cache_torn_write_quarantined () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          Faults.configure (Some "cache.write.torn:1.0:1");
          C.Cache.store k [ 1; 2; 3 ];
          Faults.configure None;
          Alcotest.(check bool) "torn entry landed" true
            (Sys.file_exists (C.Cache.path k));
          Alcotest.(check (option (list int))) "torn entry reads as miss"
            None (C.Cache.find k);
          Alcotest.(check int) "and is quarantined" 1 (C.Cache.quarantined ());
          Alcotest.(check int) "not counted as an entry" 0 (C.Cache.entries ());
          (* Self-heals: the next clean store wins. *)
          C.Cache.store k [ 4; 5 ];
          Alcotest.(check (option (list int))) "healed"
            (Some [ 4; 5 ]) (C.Cache.find k)))

let test_cache_write_fault_drops_store () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          Faults.configure (Some "cache.write:1.0:1");
          C.Cache.store k [ 9 ];
          Faults.configure None;
          Alcotest.(check int) "nothing written" 0 (C.Cache.entries ());
          Alcotest.(check (option (list int))) "miss" None (C.Cache.find k)))

let test_cache_read_fault_is_plain_miss () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          C.Cache.store k [ 7 ];
          Faults.configure (Some "cache.read:1.0:1");
          Alcotest.(check (option (list int))) "simulated I/O error = miss"
            None (C.Cache.find k);
          Faults.configure None;
          Alcotest.(check (option (list int))) "entry untouched"
            (Some [ 7 ]) (C.Cache.find k);
          Alcotest.(check int) "nothing quarantined" 0
            (C.Cache.quarantined ())))

let test_cache_decode_fault_quarantines () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          C.Cache.store k [ 7 ];
          Faults.configure (Some "cache.decode:1.0:1");
          Alcotest.(check (option (list int))) "simulated corruption = miss"
            None (C.Cache.find k);
          Faults.configure None;
          Alcotest.(check int) "quarantined aside" 1 (C.Cache.quarantined ());
          Alcotest.(check (option (list int))) "gone afterwards" None
            (C.Cache.find k)))

let test_cache_handcrafted_corruption () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let k = cache_key () in
          (* Structurally valid entry (magic, digests, trailer all
             consistent) whose payload is not marshalled data: the
             narrowed decoder must treat Marshal's own failure as
             corruption — quarantine, not an exception — while any
             other [Failure] would propagate. *)
          C.Cache.store k [ 0 ] (* creates the directory *);
          let payload = String.make 64 'x' in
          let hex = Digest.to_hex (Digest.string payload) in
          let entry = "REPROCACHE2\n" ^ hex ^ "\n" ^ payload ^ "\nREPROEND" ^ hex in
          Out_channel.with_open_bin (C.Cache.path k) (fun oc ->
              Out_channel.output_string oc entry);
          Alcotest.(check (option (list int))) "unmarshalable = miss" None
            (C.Cache.find k);
          Alcotest.(check int) "quarantined" 1 (C.Cache.quarantined ())))

let qcheck_cache_truncation_never_wrong =
  QCheck.Test.make
    ~name:"cache: any truncation of an entry reads as miss, never as data"
    ~count:40
    QCheck.(int_range 0 200)
    (fun cut ->
      protected (fun () ->
          with_temp_cache (fun _dir ->
              let k = cache_key () in
              C.Cache.store k [ 3; 1; 4; 1; 5 ];
              let full =
                In_channel.with_open_bin (C.Cache.path k) In_channel.input_all
              in
              let cut = min cut (String.length full - 1) in
              Out_channel.with_open_bin (C.Cache.path k) (fun oc ->
                  Out_channel.output_string oc (String.sub full 0 cut));
              match (C.Cache.find k : int list option) with
              | None -> true
              | Some v -> v = [ 3; 1; 4; 1; 5 ] (* only the full entry decodes *))))

(* ------------------------------------------------------------------ *)
(* Resume journal *)

let test_journal_roundtrip () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          let records =
            [ ("fig1", "plain"); ("fig2", "with\nnewline\x00and nul");
              ("fig3", String.make 1000 '\xff') ]
          in
          (match C.Journal.open_run ~name:"t" ~fingerprint:"fp1" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, recovered) ->
              Alcotest.(check int) "fresh journal" 0 (List.length recovered);
              List.iter
                (fun (step, payload) -> C.Journal.append j ~step ~payload)
                records;
              C.Journal.close j);
          (match C.Journal.open_run ~name:"t" ~fingerprint:"fp1" with
          | None -> Alcotest.fail "journal unavailable on reopen"
          | Some (j, recovered) ->
              Alcotest.(check (list (pair string string)))
                "every record back, in order" records recovered;
              C.Journal.close j);
          (* A different fingerprint must discard the whole file. *)
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp2" with
          | None -> Alcotest.fail "journal unavailable on mismatch"
          | Some (j, recovered) ->
              Alcotest.(check int) "stale journal discarded" 0
                (List.length recovered);
              C.Journal.finish j))

let test_journal_finish_deletes () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, _) ->
              C.Journal.append j ~step:"s" ~payload:"p";
              let path = C.Journal.path j in
              Alcotest.(check bool) "file exists" true (Sys.file_exists path);
              C.Journal.finish j;
              Alcotest.(check bool) "finish removes it" false
                (Sys.file_exists path)))

let test_journal_torn_tail_truncated () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, _) ->
              C.Journal.append j ~step:"a" ~payload:"1";
              C.Journal.append j ~step:"b" ~payload:"2";
              (* Crash mid-append: half a record reaches the disk. *)
              Faults.configure (Some "journal.torn:1.0:1");
              C.Journal.append j ~step:"c" ~payload:"3";
              Faults.configure None;
              C.Journal.close j);
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable on reopen"
          | Some (j, recovered) ->
              Alcotest.(check (list (pair string string)))
                "torn tail dropped, completed prefix kept"
                [ ("a", "1"); ("b", "2") ]
                recovered;
              (* The truncation healed the file: appending works. *)
              C.Journal.append j ~step:"c" ~payload:"3";
              C.Journal.close j;
              (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
              | Some (j, recovered) ->
                  Alcotest.(check int) "append after heal" 3
                    (List.length recovered);
                  C.Journal.finish j
              | None -> Alcotest.fail "journal unavailable after heal")))

let test_journal_append_fault_drops_record () =
  protected (fun () ->
      with_temp_cache (fun _dir ->
          (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, _) ->
              Faults.configure (Some "journal.append:1.0:1");
              C.Journal.append j ~step:"lost" ~payload:"x";
              Faults.configure None;
              C.Journal.append j ~step:"kept" ~payload:"y";
              C.Journal.close j);
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable on reopen"
          | Some (j, recovered) ->
              Alcotest.(check (list (pair string string)))
                "dropped append = that step reruns" [ ("kept", "y") ] recovered;
              C.Journal.finish j))

(* Cross-process journal-lock probes. [Unix.fork] is off the table —
   OCaml 5 refuses it once any domain has been spawned, and earlier
   tests in this binary run the Engine pool — so the second process
   is this very test binary re-exec'd with RT_JOURNAL_PROBE set; the
   probe runs at module-init time (see the [let ()] below) and
   [_exit]s before alcotest ever starts. The verdict travels in the
   exit status. *)
let journal_probe ~mode ~dir =
  let env =
    Array.append (Unix.environment ())
      [| "RT_JOURNAL_PROBE=" ^ mode; "RT_JOURNAL_DIR=" ^ dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> -1

let () =
  match (Sys.getenv_opt "RT_JOURNAL_PROBE", Sys.getenv_opt "RT_JOURNAL_DIR") with
  | Some mode, Some dir ->
      C.Cache.set_dir dir;
      C.Cache.set_enabled true;
      let verdict =
        match mode with
        | "excl" -> (
            (* The lock holder is alive: this open must be refused. *)
            match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
            | None -> 0
            | Some (j, _) ->
                C.Journal.close j;
                1)
        | "takeover" -> (
            (* The holder closed: take the journal over, recover its
               record, append one of our own. *)
            match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
            | Some (j, [ ("a", "1") ]) ->
                C.Journal.append j ~step:"b" ~payload:"2";
                C.Journal.close j;
                0
            | Some (j, _) ->
                C.Journal.close j;
                1
            | None -> 2)
        | _ -> 3
      in
      Unix._exit verdict
  | _ -> ()

(* Mutual exclusion: a second process opening the same journal while
   the first holds it must get [None] — not a torn file, not
   interleaved records. (This test caught a real bug: the recovery
   read used to re-open the journal path, and closing that second fd
   dropped the process's fcntl lock — POSIX releases all of a
   process's locks on a file when *any* fd for it is closed.) *)
let test_journal_lock_excludes_second_process () =
  protected (fun () ->
      with_temp_cache (fun dir ->
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, _) ->
              C.Journal.append j ~step:"parent" ~payload:"1";
              (match journal_probe ~mode:"excl" ~dir with
              | 0 -> ()
              | 1 ->
                  Alcotest.fail
                    "second process acquired a journal another process holds"
              | _ -> Alcotest.fail "lock-probe child died abnormally");
              (* The refused opener left the journal intact. *)
              C.Journal.append j ~step:"parent" ~payload:"2";
              C.Journal.close j;
              (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
              | Some (j, recovered) ->
                  Alcotest.(check (list (pair string string)))
                    "both parent records survive the refused opener"
                    [ ("parent", "1"); ("parent", "2") ]
                    recovered;
                  C.Journal.finish j
              | None -> Alcotest.fail "journal unavailable on reopen")))

(* Lock release and cross-process durability: once the holder closes,
   another process may take the journal over, and records either side
   fsynced are visible to the other. This is the coordinator hand-off
   that resumable dispatch relies on. *)
let test_journal_lock_released_on_close () =
  protected (fun () ->
      with_temp_cache (fun dir ->
          (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | None -> Alcotest.fail "journal unavailable"
          | Some (j, _) ->
              C.Journal.append j ~step:"a" ~payload:"1";
              C.Journal.close j);
          (match journal_probe ~mode:"takeover" ~dir with
          | 0 -> ()
          | 1 -> Alcotest.fail "child recovered the wrong records"
          | 2 -> Alcotest.fail "closed journal still refused the child"
          | _ -> Alcotest.fail "takeover child died abnormally");
          match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
          | Some (j, recovered) ->
              Alcotest.(check (list (pair string string)))
                "records from both processes, in order"
                [ ("a", "1"); ("b", "2") ]
                recovered;
              C.Journal.finish j
          | None -> Alcotest.fail "journal unavailable after takeover"))

let qcheck_journal_truncation_prefix =
  QCheck.Test.make
    ~name:"journal: any byte-level truncation recovers a record prefix"
    ~count:40
    QCheck.(int_range 0 600)
    (fun cut ->
      protected (fun () ->
          with_temp_cache (fun _dir ->
              let records =
                List.init 5 (fun i ->
                    (Printf.sprintf "step%d" i, String.make (17 * (i + 1)) 'q'))
              in
              (match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
              | None -> QCheck.assume_fail ()
              | Some (j, _) ->
                  List.iter
                    (fun (step, payload) -> C.Journal.append j ~step ~payload)
                    records;
                  C.Journal.close j);
              let path =
                Filename.concat (Filename.concat (C.Cache.dir ()) "journal")
                  "t.journal"
              in
              let full = In_channel.with_open_bin path In_channel.input_all in
              let cut = min cut (String.length full) in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc (String.sub full 0 cut));
              match C.Journal.open_run ~name:"t" ~fingerprint:"fp" with
              | None -> QCheck.assume_fail ()
              | Some (j, recovered) ->
                  C.Journal.finish j;
                  let rec is_prefix r full =
                    match (r, full) with
                    | [], _ -> true
                    | a :: rt, b :: ft -> a = b && is_prefix rt ft
                    | _ :: _, [] -> false
                  in
                  is_prefix recovered records)))

(* ------------------------------------------------------------------ *)
(* End to end: experiments under fault torture *)

let scale = 0.02

let run_text id =
  let was = C.Cache.enabled () in
  C.Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> C.Cache.set_enabled was)
    (fun () ->
      C.Experiment.clear_cache ();
      C.Report.run_to_string ~scale ~jobs:2 id)

let test_e2e_faulted_run_identical () =
  protected (fun () ->
      Faults.configure None;
      let clean = run_text C.Experiment.Fig7 in
      Faults.configure (Some "all:0.1:42");
      C.Engine.set_retries 8;
      let faulted = run_text C.Experiment.Fig7 in
      Alcotest.(check string) "fig7 bit-identical under 10% faults" clean
        faulted;
      Alcotest.(check (list (pair string reject))) "no holes" []
        (C.Experiment.holes ()))

let test_e2e_faulted_fig8p_identical () =
  protected (fun () ->
      (* The learned-replacement sweep: perceptron weight training and
         bypass decisions ride the same supervised retry machinery and
         must be bit-identical under injected faults. *)
      Faults.configure None;
      let clean = run_text C.Experiment.Fig8p in
      Faults.configure (Some "all:0.1:42");
      C.Engine.set_retries 8;
      let faulted = run_text C.Experiment.Fig8p in
      Alcotest.(check string) "fig8p bit-identical under 10% faults" clean
        faulted;
      Alcotest.(check (list (pair string reject))) "no holes" []
        (C.Experiment.holes ()))

let test_e2e_every_site_saturated_fig4 () =
  protected (fun () ->
      Faults.configure None;
      let clean = run_text C.Experiment.Fig4 in
      (* Probability 1 on every site: the engine pool and packed
         capture can never succeed, the cache can never serve — fig4's
         synchronous compute path carries no fault site, so the run
         degrades all the way to plain recomputation and must still
         produce identical tables. *)
      Faults.configure (Some "all:1.0:1");
      let faulted = run_text C.Experiment.Fig4 in
      Alcotest.(check string) "fig4 identical at 100% fault rate" clean
        faulted)

let test_e2e_degraded_holes () =
  protected (fun () ->
      C.Engine.set_retries 0;
      Faults.configure (Some "engine.task:1.0:1");
      let text = run_text C.Experiment.Fig7 in
      Alcotest.(check bool) "holes recorded" true (C.Experiment.holes () <> []);
      Alcotest.(check bool) "cells marked" true
        (String.length text > 0
        && (let found = ref false in
            String.iteri
              (fun i c ->
                if c = '!' && i > 0 && text.[i - 1] = ' ' then found := true)
              text;
            !found));
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length text
          && (String.equal (String.sub text i n) sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "degraded appendix present" true
        (has "Degraded run"))

let test_e2e_strict_raises () =
  protected (fun () ->
      C.Engine.set_retries 0;
      C.Experiment.set_strict true;
      Faults.configure (Some "engine.task:1.0:1");
      match run_text C.Experiment.Fig7 with
      | _ -> Alcotest.fail "strict mode must abort on the first failure"
      | exception C.Failure.Error fl ->
          Alcotest.(check bool) "structured failure" true
            (fl.C.Failure.klass = C.Failure.Transient))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [ ( "registry",
        [ Alcotest.test_case "disabled is inert" `Quick test_faults_disabled;
          Alcotest.test_case "site scoping" `Quick test_faults_site_scoping;
          Alcotest.test_case "malformed entries" `Quick
            test_faults_malformed_entries;
          Alcotest.test_case "seeded determinism" `Quick
            test_faults_deterministic;
          Alcotest.test_case "dispatch network sites" `Quick
            test_faults_dispatch_network_sites ] );
      ( "engine",
        [ Alcotest.test_case "retries absorb transients" `Quick
            test_retry_absorbs_transient;
          Alcotest.test_case "exhaustion is structured" `Quick
            test_retry_exhaustion_is_structured;
          Alcotest.test_case "timeout detected, not retried" `Quick
            test_timeout_is_detected_not_retried;
          Alcotest.test_case "map re-raises the original" `Quick
            test_map_raises_original_after_retries ]
        @ Qseed.all [ qcheck_supervised_identity ] );
      ( "cache",
        [ Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip_heals;
          Alcotest.test_case "torn write quarantined" `Quick
            test_cache_torn_write_quarantined;
          Alcotest.test_case "write fault drops store" `Quick
            test_cache_write_fault_drops_store;
          Alcotest.test_case "read fault is a plain miss" `Quick
            test_cache_read_fault_is_plain_miss;
          Alcotest.test_case "decode fault quarantines" `Quick
            test_cache_decode_fault_quarantines;
          Alcotest.test_case "handcrafted corruption" `Quick
            test_cache_handcrafted_corruption ]
        @ Qseed.all [ qcheck_cache_truncation_never_wrong ] );
      ( "journal",
        [ Alcotest.test_case "roundtrip + fingerprint" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "finish deletes" `Quick test_journal_finish_deletes;
          Alcotest.test_case "torn tail truncated" `Quick
            test_journal_torn_tail_truncated;
          Alcotest.test_case "dropped append" `Quick
            test_journal_append_fault_drops_record;
          Alcotest.test_case "lock excludes a second process" `Quick
            test_journal_lock_excludes_second_process;
          Alcotest.test_case "lock released on close" `Quick
            test_journal_lock_released_on_close ]
        @ Qseed.all [ qcheck_journal_truncation_prefix ] );
      ( "end-to-end",
        [ Alcotest.test_case "faulted run bit-identical" `Slow
            test_e2e_faulted_run_identical;
          Alcotest.test_case "faulted fig8p bit-identical" `Slow
            test_e2e_faulted_fig8p_identical;
          Alcotest.test_case "100% fault rate, fig4 identical" `Slow
            test_e2e_every_site_saturated_fig4;
          Alcotest.test_case "degradation marks holes" `Slow
            test_e2e_degraded_holes;
          Alcotest.test_case "strict mode aborts" `Slow test_e2e_strict_raises ]
      ) ]
