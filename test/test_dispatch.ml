(* Distributed sweep execution: the lease-based coordinator of
   Repro_core.Dispatch. The properties this layer exists for:

   - an N-worker run renders byte-identically to the in-process -j1
     run it replaces (nothing of value crosses the wire; workers only
     warm the shared cache);
   - kill -9 of a worker mid-sweep costs wall time, never bytes;
   - an expired lease is re-issued and the completion is recorded
     exactly once — no acknowledgement is ever double-counted;
   - a pool that lost a member is replaced whole before the next
     figure, so later sweeps run at full strength — also when the
     member died between sweeps, where no sweep saw its EOF;
   - the cache is the only record of finished work: a sweep over a
     cache filled in-process computes nothing;
   - when every spawn fails, the coordinator leaves the whole sweep to
     the in-process render, which still renders the same bytes.

   The worker pool re-execs this very test binary, which is why
   [Dispatch.maybe_worker] must be the first thing main does. *)

module C = Repro_core
module D = Repro_core.Dispatch

let () = D.maybe_worker ()

let scale = 0.02

(* Fresh private cache directory per run; every toggle this suite
   moves is restored on the way out, success or failure. *)
let with_dispatch_env f =
  let dir =
    Printf.sprintf "_dispatch_test_cache_%d_%d" (Unix.getpid ())
      (Random.int 1_000_000)
  in
  let was_dir = C.Cache.dir () in
  let was_enabled = C.Cache.enabled () in
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      D.shutdown ();
      D.set_workers None;
      Repro_util.Faults.configure None;
      C.Cache.clear ();
      (try Sys.rmdir dir with Sys_error _ -> ());
      C.Cache.set_dir was_dir;
      C.Cache.set_enabled was_enabled)
    (fun () -> f ())

(* The independent reference: pure in-process compute with the
   persistent cache off, so it cannot read anything a worker wrote.
   Byte-identity against this text is the real property — comparing
   against a cache-warmed rendering would hide a worker that cached a
   wrong artifact. *)
let reference id =
  D.set_workers (Some 0);
  let was = C.Cache.enabled () in
  C.Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> C.Cache.set_enabled was)
    (fun () -> C.Report.run_to_string ~scale ~jobs:1 id)

let dispatched ~workers id =
  D.set_workers (Some workers);
  Fun.protect
    ~finally:(fun () -> D.set_workers None)
    (fun () -> C.Report.run_to_string ~scale ~jobs:1 id)

let show_id id = match id with
  | C.Experiment.Fig5 -> "fig5"
  | C.Experiment.Fig6 -> "fig6"
  | C.Experiment.Fig7 -> "fig7"
  | _ -> "other"

let gen_id = QCheck.oneofl [ C.Experiment.Fig5; C.Experiment.Fig6;
                             C.Experiment.Fig7 ]
let arb_id = QCheck.make ~print:show_id (QCheck.gen gen_id)

(* Poll the coordinator's cumulative stats from a watcher domain.
   Returns false if the sweep finished before the condition held. *)
let wait_for ?(timeout_s = 10.0) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Byte identity, undisturbed *)

let qcheck_identical =
  QCheck.Test.make ~name:"N workers render byte-identical to -j1" ~count:3
    QCheck.(pair arb_id (int_range 2 4))
    (fun (id, workers) ->
      with_dispatch_env (fun () ->
          let want = reference id in
          D.reset_stats ();
          let got = dispatched ~workers id in
          let s = D.stats () in
          if s.D.dup_results <> 0 then
            QCheck.Test.fail_reportf "dup_results %d <> 0" s.D.dup_results;
          let ntasks = List.length (C.Experiment.tasks_for id) in
          if s.D.completed + s.D.fallback < ntasks then
            QCheck.Test.fail_reportf "only %d of %d tasks accounted for"
              (s.D.completed + s.D.fallback)
              ntasks;
          String.equal want got))

(* ------------------------------------------------------------------ *)
(* kill -9 mid-sweep *)

let qcheck_kill9_identical =
  QCheck.Test.make ~name:"kill -9 mid-sweep still renders byte-identical"
    ~count:3
    QCheck.(int_range 2 4)
    (fun workers ->
      with_dispatch_env (fun () ->
          let id = C.Experiment.Fig5 in
          let want = reference id in
          D.reset_stats ();
          D.set_workers (Some workers);
          D.prewarm ();
          let killed = Atomic.make false in
          let killer =
            Domain.spawn (fun () ->
                (* Strike once real progress exists and work remains,
                   so the victim is almost surely holding a lease. *)
                if
                  wait_for (fun () ->
                      let s = D.stats () in
                      s.D.completed >= 2 && s.D.tasks - s.D.completed > 4)
                then
                  match D.pids () with
                  | pid :: _ ->
                      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                      Atomic.set killed true
                  | [] -> ())
          in
          let got =
            Fun.protect
              ~finally:(fun () -> Domain.join killer)
              (fun () -> dispatched ~workers id)
          in
          let s = D.stats () in
          if s.D.dup_results <> 0 then
            QCheck.Test.fail_reportf "dup_results %d <> 0" s.D.dup_results;
          if Atomic.get killed && s.D.worker_deaths = 0 then
            QCheck.Test.fail_reportf
              "a worker was SIGKILLed but no death was recorded";
          String.equal want got))

(* ------------------------------------------------------------------ *)
(* Lease expiry: reissue, exactly once *)

let qcheck_lease_expiry_exactly_once =
  QCheck.Test.make ~name:"expired lease reissues and never double-counts"
    ~count:3
    QCheck.(int_range 2 3)
    (fun workers ->
      with_dispatch_env (fun () ->
          let id = C.Experiment.Fig5 in
          let want = reference id in
          Unix.putenv "REPRO_LEASE_MS" "200";
          Fun.protect
            ~finally:(fun () ->
              (* lease_ms is re-read per grant, so restoring the
                 default here un-poisons every later test. *)
              Unix.putenv "REPRO_LEASE_MS" "300000")
            (fun () ->
              D.reset_stats ();
              D.set_workers (Some workers);
              D.prewarm ();
              let stopped = Atomic.make 0 in
              let stopper =
                Domain.spawn (fun () ->
                    if
                      wait_for (fun () ->
                          let s = D.stats () in
                          s.D.completed >= 2 && s.D.tasks - s.D.completed > 4)
                    then
                      match D.pids () with
                      | pid :: _ ->
                          (* A stopped worker never acks again: either
                             its current lease expires, or it is
                             granted one more task it never reads and
                             that lease expires. Both end in SIGKILL
                             and reissue. *)
                          (try
                             Unix.kill pid Sys.sigstop;
                             Atomic.set stopped pid
                           with Unix.Unix_error _ -> ())
                      | [] -> ())
              in
              let got =
                Fun.protect
                  ~finally:(fun () ->
                    Domain.join stopper;
                    match Atomic.get stopped with
                    | 0 -> ()
                    | pid -> (
                        try Unix.kill pid Sys.sigcont
                        with Unix.Unix_error _ -> ()))
                  (fun () -> dispatched ~workers id)
              in
              let s = D.stats () in
              if Atomic.get stopped <> 0 then begin
                if s.D.expired = 0 then
                  QCheck.Test.fail_reportf
                    "worker was SIGSTOPped but no lease expired";
                if s.D.reissued = 0 then
                  QCheck.Test.fail_reportf "lease expired but never reissued"
              end;
              if s.D.dup_results <> 0 then
                QCheck.Test.fail_reportf "dup_results %d <> 0" s.D.dup_results;
              String.equal want got)))

(* ------------------------------------------------------------------ *)
(* A degraded pool is replaced, not reused *)

let test_degraded_pool_respawned () =
  with_dispatch_env (fun () ->
      let workers = 3 in
      let want = reference C.Experiment.Fig6 in
      D.reset_stats ();
      D.set_workers (Some workers);
      D.prewarm ();
      let killed = Atomic.make false in
      let killer =
        Domain.spawn (fun () ->
            if
              wait_for (fun () ->
                  let s = D.stats () in
                  s.D.completed >= 1 && s.D.tasks - s.D.completed > 4)
            then
              match D.pids () with
              | pid :: _ ->
                  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                  Atomic.set killed true
              | [] -> ())
      in
      Fun.protect
        ~finally:(fun () -> Domain.join killer)
        (fun () -> ignore (dispatched ~workers C.Experiment.Fig5));
      Alcotest.(check bool) "a member was killed mid-sweep" true
        (Atomic.get killed);
      Alcotest.(check bool) "its death was recorded" true
        ((D.stats ()).D.worker_deaths > 0);
      D.set_workers (Some workers);
      let got = C.Report.run_to_string ~scale ~jobs:1 C.Experiment.Fig6 in
      Alcotest.(check int) "next figure runs on a full pool" workers
        (List.length (D.pids ()));
      Alcotest.(check bool) "byte-identical" true (String.equal want got);
      (* A pool spawned for one size is not reused for another. *)
      D.set_workers (Some 2);
      D.prewarm ();
      Alcotest.(check int) "resized pool" 2 (List.length (D.pids ())))

(* A member killed while the pool sat idle: no sweep read its EOF, so
   only the process itself can say it is gone. The next prefetch must
   start on a full pool, not lose its first lease to the dead member. *)
let test_idle_death_respawned () =
  with_dispatch_env (fun () ->
      let id = C.Experiment.Fig5 in
      let want = reference id in
      D.set_workers (Some 2);
      D.prewarm ();
      let victim = List.hd (D.pids ()) in
      Unix.kill victim Sys.sigkill;
      ignore (Unix.waitpid [] victim);
      D.reset_stats ();
      D.prefetch ~scale id;
      let s = D.stats () in
      let pids = D.pids () in
      Alcotest.(check int) "full pool" 2 (List.length pids);
      Alcotest.(check bool) "dead member gone" false (List.mem victim pids);
      Alcotest.(check int) "no lease reissued" 0 s.D.reissued;
      Alcotest.(check int) "no death seen mid-sweep" 0 s.D.worker_deaths;
      let got = C.Report.run_to_string ~scale ~jobs:1 id in
      Alcotest.(check bool) "byte-identical" true (String.equal want got))

(* ------------------------------------------------------------------ *)
(* Resume: the cache is the record of finished work *)

let test_resume_from_cache () =
  with_dispatch_env (fun () ->
      let id = C.Experiment.Fig5 in
      let want = reference id in
      (* An earlier in-process run, killed or not, left its artifacts
         in the cache: that is everything a rerun resumes from. *)
      D.set_workers (Some 0);
      ignore (C.Report.run_to_string ~scale ~jobs:1 id);
      C.Experiment.clear_cache ();
      let module T = Repro_util.Telemetry in
      let was = T.enabled () in
      T.set_enabled true;
      Fun.protect
        ~finally:(fun () -> T.set_enabled was)
        (fun () ->
          let insts0 = T.counter "experiment.sim_insts"
          and misses0 = T.counter "cache.misses"
          and worker0 = T.counter "dispatch.worker_tasks" in
          D.reset_stats ();
          let got = dispatched ~workers:2 id in
          (* The workers ship their counters home on exit. *)
          D.shutdown ();
          let ntasks = List.length (C.Experiment.tasks_for id) in
          Alcotest.(check int) "every task acknowledged" ntasks
            (D.stats ()).D.completed;
          Alcotest.(check int) "worker counters absorbed" ntasks
            (T.counter "dispatch.worker_tasks" - worker0);
          Alcotest.(check int) "nothing simulated" 0
            (T.counter "experiment.sim_insts" - insts0);
          Alcotest.(check int) "no cache misses" 0
            (T.counter "cache.misses" - misses0);
          Alcotest.(check bool) "byte-identical" true (String.equal want got)))

(* ------------------------------------------------------------------ *)
(* Spawn faults: the render computes the sweep in-process *)

let test_spawn_fault_fallback () =
  with_dispatch_env (fun () ->
      let id = C.Experiment.Fig7 in
      let want = reference id in
      Repro_util.Faults.configure (Some "dispatch.spawn:1.0:11");
      D.reset_stats ();
      let got = dispatched ~workers:4 id in
      Repro_util.Faults.configure None;
      let s = D.stats () in
      Alcotest.(check bool) "spawn failures recorded" true
        (s.D.spawn_failures > 0);
      Alcotest.(check int) "every task left to the in-process render"
        (List.length (C.Experiment.tasks_for id))
        s.D.fallback;
      Alcotest.(check bool) "byte-identical" true (String.equal want got))

(* ------------------------------------------------------------------ *)

let qcheck tests = Qseed.all tests

let () =
  Alcotest.run "dispatch"
    [ ("identity", qcheck [ qcheck_identical ]);
      ("chaos",
       qcheck [ qcheck_kill9_identical; qcheck_lease_expiry_exactly_once ]);
      ("pool",
       [ Alcotest.test_case "degraded pool respawned for the next figure"
           `Quick test_degraded_pool_respawned;
         Alcotest.test_case "member killed while idle is replaced" `Quick
           test_idle_death_respawned ]);
      ("resume",
       [ Alcotest.test_case "sweep over a filled cache computes nothing"
           `Quick test_resume_from_cache ]);
      ("fallback",
       [ Alcotest.test_case "all spawns fail: in-process fallback" `Quick
           test_spawn_fault_fallback ]) ]
