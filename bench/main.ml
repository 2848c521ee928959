(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                 regenerate every table and
                                              figure, then run the
                                              Bechamel microbenchmarks
     dune exec bench/main.exe -- fig5 tab3    only those experiments
     dune exec bench/main.exe -- micro        only the microbenchmarks
     dune exec bench/main.exe -- fig1 -j 4    shard trace runs over
                                              4 domains (default: all
                                              cores; results identical)
     dune exec bench/main.exe -- --no-cache   ignore the persistent
                                              _cache/ directory
     dune exec bench/main.exe -- fig5 --workers 4
                                              probe distributed sweep
                                              execution: shard each
                                              experiment's task space
                                              over 4 worker processes
                                              (lease-based coordinator,
                                              shared cache) and gate the
                                              result byte-identical to
                                              the in-process -j1 run;
                                              adds dist_ms/dist_speedup
                                              probes and a `distributed`
                                              block to --json output
     dune exec bench/main.exe -- fig5 --workers 4 --dist-kill
                                              same, but SIGKILL one
                                              worker mid-sweep (the
                                              lease re-issue path must
                                              still complete the run
                                              byte-identically)
     dune exec bench/main.exe -- fig5 --remote 4 --workers 0
                                              probe the remote (TCP)
                                              transport: spawn 4 worker
                                              helpers that dial the
                                              coordinator's loopback
                                              listener, register, and
                                              ship artifacts back as
                                              digest-verified frames;
                                              adds a `remote` sub-block
                                              under `distributed` in
                                              --json output (mixes with
                                              --workers N local pools)
     dune exec bench/main.exe -- fig8 --json BENCH_results.json
                                              also write per-experiment
                                              wall time, instr/s, cache
                                              hit rate and parallel
                                              speedup as JSON
     dune exec bench/main.exe -- --check-json BENCH_results.json
                                              validate an emitted file
                                              (exit 1 when malformed)
     dune exec bench/main.exe -- --strict     fail fast: abort on the
                                              first failed measurement
                                              instead of marking holes
     dune exec bench/main.exe -- --retry N    retry budget for transient
                                              task failures (default 2)
     dune exec bench/main.exe -- --timeout-ms N
                                              per-task deadline (default
                                              off; trades reproducibility)
     dune exec bench/main.exe -- --faults SPEC
                                              inject faults, e.g.
                                              all:0.05:42 (also
                                              REPRO_FAULTS)
     dune exec bench/main.exe -- --no-journal do not journal completed
                                              experiments (a fresh run
                                              every time)
     dune exec bench/main.exe -- --serve-bench
                                              load-generate against an
                                              in-process Repro_core.Server
                                              daemon: concurrent clients,
                                              p50/p90/p99 latency,
                                              throughput, mid-run reload
                                              update lag, and a byte-
                                              identity gate against the
                                              one-shot renderings; tune
                                              with --serve-clients N,
                                              --serve-requests N,
                                              --serve-mode closed|open,
                                              --serve-rps R
     dune exec bench/main.exe -- --check-json F --expect-serve
                                              additionally require the
                                              file to record a serve run
     dune exec bench/main.exe -- --check-json F --expect-dist
                                              additionally require the
                                              file to record a --workers
                                              probe
     REPRO_SCALE=0.2 dune exec bench/main.exe faster, noisier runs
     REPRO_TRACE=1   dune exec bench/main.exe print the telemetry span
                                              tree to stderr on exit

   An interrupted run leaves a resume journal under
   <cache dir>/journal/; the next invocation with the same experiment
   list, scale and tool version replays the completed experiments
   byte-identically and continues from the first unfinished one. *)

module W = Repro_workload
module A = Repro_analysis
module F = Repro_frontend
module T = Repro_util.Telemetry
module J = Repro_util.Json

(* Malformed, non-finite and non-positive REPRO_SCALE values warn
   once and fall back to 1.0 (the old code silently accepted nan/0/
   negative scales, which poison every measurement derived from the
   instruction budget). *)
let scale = Repro_util.Env.float_positive ~name:"REPRO_SCALE" ~default:1.0 ()

(* ------------------------------------------------------------------ *)
(* Experiment regeneration: one section per paper table/figure. *)

type measurement = {
  m_id : string;
  m_status : string; (* "ok", "degraded" (holes) or "failed" *)
  m_wall_ms : float;
  m_sim_insts : int;
  m_hits : int;
  m_misses : int;
  m_holes : int; (* measurements lost to failed benchmarks *)
  m_ok : int; (* engine task outcomes, deltas over this experiment *)
  m_retried : int;
  m_failed : int;
  m_timed_out : int;
  m_faults : int; (* injected faults that fired during this experiment *)
  m_seq_ms : float option; (* uncached -j1 probe, jobs > 1 only *)
  m_par_ms : float option; (* uncached -jN probe, jobs > 1 only *)
  m_dist_ms : float option; (* --workers N distributed probe *)
  m_dist_speedup : float option; (* in-process -j1 time / distributed time *)
}

let ms_since t0 = Int64.to_float (Int64.sub (T.now_ns ()) t0) /. 1e6

(* Both probe runs recompute everything (memo cleared, disk cache off)
   so the speedup compares computation against computation — a warm
   disk cache would otherwise make the -j1 side look supernaturally
   fast. *)
let speedup_probe ~jobs id =
  if jobs <= 1 then (None, None)
  else begin
    let was = Repro_core.Cache.enabled () in
    Repro_core.Cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Repro_core.Cache.set_enabled was)
      (fun () ->
        let timed j =
          Repro_core.Experiment.clear_cache ();
          let t0 = T.now_ns () in
          ignore (Repro_core.Report.run_to_string ~scale ~jobs:j id);
          ms_since t0
        in
        let par = timed jobs in
        let seq = timed 1 in
        (Some seq, Some par))
  end

(* Distributed-execution probe (--workers N): the experiment's task
   space sharded across N worker processes against the same render
   done fully in-process at -j1, both from cold state. The in-process
   side runs without the disk cache (pure computation); the
   distributed side runs over a fresh private cache directory — the
   only channel worker results can travel — so the ratio charges
   dispatch for its cache traffic and process round-trips. The two
   renderings must be byte-identical; the boolean travels to the
   schema-v9 [distributed] block where --check-json gates on it.

   With --remote R the probe also spawns R loopback-TCP workers, each
   with a private cache: their artifacts must cross the wire through
   the digest-verified install path, and the [distributed.remote]
   sub-block records the registration/reject/reconnect traffic.

   With --dist-kill a chaos domain watches the pool and SIGKILLs one
   worker (a remote helper when present) as soon as it has completed
   a task, proving the lease re-issue path mid-probe. *)

let dist_workers = ref 0 (* --workers: local pool size *)
let dist_remote = ref 0 (* --remote: loopback-TCP worker count *)
let dist_kill = ref false (* --dist-kill *)
let dist_probed = ref 0 (* experiments the probe ran on *)
let dist_identical = ref true (* every probe byte-identical so far *)
let dist_killed = ref 0 (* chaos kills actually delivered *)
let dist_remote_pids = ref [] (* helper pids, chaos-kill candidates *)

(* Block until [want] more remote registrations than [base] have
   completed the handshake (or a bounded wait expires — a worker that
   never dials, e.g. under connect faults, must not hang the bench;
   the sweep's grace/fallback machinery covers the shortfall). *)
let await_registrations ~base ~want =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let registered () =
    (Repro_core.Dispatch.stats ()).remote_workers - base >= want
  in
  while (not (registered ())) && Unix.gettimeofday () < deadline do
    Repro_core.Dispatch.poll_registrations ();
    Unix.sleepf 0.005
  done

let dist_probe id =
  let n = !dist_workers in
  let r = !dist_remote in
  if (n <= 0 && r <= 0) || Repro_core.Experiment.tasks_for id = [] then
    (None, None)
  else begin
    let was_cache = Repro_core.Cache.enabled () in
    let was_dir = Repro_core.Cache.dir () in
    let probe_dir = Printf.sprintf "_dist_probe_cache.%d" (Unix.getpid ()) in
    let remote_dirs =
      List.init r (fun i -> Printf.sprintf "%s_r%d" probe_dir i)
    in
    Fun.protect
      ~finally:(fun () ->
        Repro_core.Dispatch.shutdown ();
        dist_remote_pids := [];
        Repro_core.Dispatch.set_workers None;
        Repro_core.Dispatch.set_listen None;
        Repro_core.Cache.set_dir was_dir;
        Repro_core.Cache.set_enabled was_cache;
        ignore
          (Sys.command
             (Printf.sprintf "rm -rf %s"
                (String.concat " " (probe_dir :: remote_dirs)))))
      (fun () ->
        (* In-process reference: no workers, no disk cache, cold memo. *)
        Repro_core.Dispatch.set_workers (Some 0);
        Repro_core.Cache.set_enabled false;
        Repro_core.Experiment.clear_cache ();
        let t0 = T.now_ns () in
        let ref_text = Repro_core.Report.run_to_string ~scale ~jobs:1 id in
        let j1_ms = ms_since t0 in
        (* Distributed run: fresh pool over a fresh private cache.
           Remote workers dial the coordinator's loopback listener
           and get private caches of their own — their artifacts can
           only arrive over the wire. *)
        Repro_core.Cache.set_dir probe_dir;
        Repro_core.Cache.set_enabled true;
        Repro_core.Experiment.clear_cache ~disk:true ();
        Repro_core.Dispatch.set_workers (Some n);
        (if r > 0 then
           Repro_core.Dispatch.set_listen (Some "127.0.0.1:0"));
        Repro_core.Dispatch.shutdown ();
        Repro_core.Dispatch.prewarm ();
        if r > 0 then begin
          let base = (Repro_core.Dispatch.stats ()).remote_workers in
          dist_remote_pids :=
            List.filter_map
              (fun dir ->
                Repro_core.Dispatch.spawn_remote_worker ~cache_dir:dir ())
              remote_dirs;
          await_registrations ~base ~want:(List.length !dist_remote_pids)
        end;
        let stop = Atomic.make false in
        let killer =
          if not !dist_kill then None
          else
            let c0 = (Repro_core.Dispatch.stats ()).completed in
            Some
              (Domain.spawn (fun () ->
                   let victims () =
                     (* Prefer a remote helper when the probe has
                        them: the kill then exercises reconnect and
                        lease re-issue over TCP. *)
                     match !dist_remote_pids with
                     | _ :: _ as pids -> pids
                     | [] -> Repro_core.Dispatch.pids ()
                   in
                   let rec watch () =
                     if Atomic.get stop then false
                     else if (Repro_core.Dispatch.stats ()).completed > c0
                     then
                       match victims () with
                       | pid :: _ -> (
                           match Unix.kill pid Sys.sigkill with
                           | () -> true
                           | exception Unix.Unix_error _ -> false)
                       | [] -> false
                     else begin
                       Unix.sleepf 0.002;
                       watch ()
                     end
                   in
                   watch ()))
        in
        let t0 = T.now_ns () in
        let dist_text = Repro_core.Report.run_to_string ~scale ~jobs:1 id in
        let dist_ms = ms_since t0 in
        Atomic.set stop true;
        (match killer with
        | Some d -> if Domain.join d then incr dist_killed
        | None -> ());
        incr dist_probed;
        if not (String.equal ref_text dist_text) then dist_identical := false;
        ( Some dist_ms,
          if dist_ms > 0.0 then Some (j1_ms /. dist_ms) else None ))
  end

(* Run one experiment under supervision. Returns the rendered table
   text (printed, and journaled by the caller when the run was
   clean), the outcome status, and the measurement row when
   [measure]. A failure that escapes the Experiment layer (the
   supervised paths degrade internally, so this is a fatal class or a
   strict-mode abort) is caught here when non-strict, rendered as a
   marked hole in the sequence, and the harness moves on to the next
   experiment. *)
let run_experiment ~jobs ~measure id =
  let name = Repro_core.Experiment.to_string id in
  let stats0 = Repro_core.Engine.stats () in
  let insts0 = T.counter "experiment.sim_insts" in
  let faults0 = Repro_util.Faults.injected () in
  let t0 = T.now_ns () in
  let text, status =
    match Repro_core.Report.run_to_string ~scale ~jobs id with
    | s ->
        (s, if Repro_core.Experiment.holes () = [] then "ok" else "degraded")
    | exception e
      when (not (Repro_core.Experiment.strict_enabled ()))
           && Repro_core.Failure.capturable e ->
        let fl = Repro_core.Failure.of_exn e in
        ( Printf.sprintf "==== %s: EXPERIMENT FAILED ====\n  %s\n\n" name
            (Repro_core.Failure.to_string fl),
          "failed" )
  in
  (* Captured now: the probe runs below re-enter Experiment.run,
     which clears the per-run hole registry. *)
  let holes_n = List.length (Repro_core.Experiment.holes ()) in
  let wall_ms = ms_since t0 in
  print_string text;
  Printf.printf "(%s %s in %.1fs at scale %g, %d job%s)\n\n" name
    (if status = "failed" then "FAILED" else "regenerated")
    (wall_ms /. 1000.0) scale jobs
    (if jobs = 1 then "" else "s");
  let row =
    if not measure then None
    else begin
      (* Deltas captured before the speedup probe, which simulates more
         instructions and takes more cache misses of its own. *)
      let sim_insts = T.counter "experiment.sim_insts" - insts0 in
      let stats1 = Repro_core.Engine.stats () in
      (* The perf probes rerun the experiment several times; numbers
         from a degraded or failed run would compare apples to holes,
         so they only run after a clean pass. *)
      let probe2 f = if status = "ok" then f () else (None, None) in
      let seq_ms, par_ms = probe2 (fun () -> speedup_probe ~jobs id) in
      let dist_ms, dist_speedup = probe2 (fun () -> dist_probe id) in
      Some
        { m_id = name;
          m_status = status;
          m_wall_ms = wall_ms;
          m_sim_insts = sim_insts;
          m_hits = stats1.cache_hits - stats0.cache_hits;
          m_misses = stats1.cache_misses - stats0.cache_misses;
          m_holes = holes_n;
          m_ok = stats1.tasks_run - stats0.tasks_run;
          m_retried = stats1.tasks_retried - stats0.tasks_retried;
          m_failed = stats1.tasks_failed - stats0.tasks_failed;
          m_timed_out = stats1.tasks_timed_out - stats0.tasks_timed_out;
          m_faults = Repro_util.Faults.injected () - faults0;
          m_seq_ms = seq_ms;
          m_par_ms = par_ms;
          m_dist_ms = dist_ms;
          m_dist_speedup = dist_speedup }
    end
  in
  (text, status, row)

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: the machine-readable perf trajectory. *)

let measurement_json ~jobs m =
  let opt = function Some v -> J.Num v | None -> J.Null in
  let lookups = m.m_hits + m.m_misses in
  J.Obj
    [ ("id", J.Str m.m_id);
      ("status", J.Str m.m_status);
      ("wall_ms", J.Num m.m_wall_ms);
      ("sim_insts", J.Num (float_of_int m.m_sim_insts));
      ( "instr_per_s",
        J.Num
          (if m.m_wall_ms > 0.0 then
             float_of_int m.m_sim_insts /. (m.m_wall_ms /. 1000.0)
           else 0.0) );
      ("jobs", J.Num (float_of_int jobs));
      ("cache_hits", J.Num (float_of_int m.m_hits));
      ("cache_misses", J.Num (float_of_int m.m_misses));
      ( "cache_hit_rate",
        J.Num
          (if lookups > 0 then float_of_int m.m_hits /. float_of_int lookups
           else 0.0) );
      ("holes", J.Num (float_of_int m.m_holes));
      ("tasks_ok", J.Num (float_of_int m.m_ok));
      ("tasks_retried", J.Num (float_of_int m.m_retried));
      ("tasks_failed", J.Num (float_of_int m.m_failed));
      ("tasks_timed_out", J.Num (float_of_int m.m_timed_out));
      ("faults_injected", J.Num (float_of_int m.m_faults));
      ("seq_ms", opt m.m_seq_ms);
      ("par_ms", opt m.m_par_ms);
      ( "speedup_vs_j1",
        match (m.m_seq_ms, m.m_par_ms) with
        | Some s, Some p when p > 0.0 -> J.Num (s /. p)
        | _ -> J.Null );
      ("dist_ms", opt m.m_dist_ms);
      ("dist_speedup", opt m.m_dist_speedup) ]

(* The learned-replacement block (schema v7): the fig8p headline
   question in machine-readable form. [lru_mpki] is the 32KB/64B/
   4-way LRU reference, [preuse_mpki] the 16KB/64B/4-way perceptron
   configuration, both mean I-cache MPKI over every benchmark;
   [crossover_size] is the smallest swept perceptron size (bytes)
   whose mean MPKI does not exceed the LRU reference, null when no
   swept size crosses over. Only computed when fig8p was benched. *)
let learned_json ids =
  if not (List.mem Repro_core.Experiment.Fig8p ids) then J.Null
  else begin
    let sizes = [ 8192; 16384; 32768 ] in
    let configs =
      Array.of_list
        (A.Icache_sweep.cfg (32768, 64, 4)
        :: List.map
             (fun s ->
               A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (s, 64, 4))
             sizes)
    in
    let profiles = W.Suites.all in
    let sums = Array.make (Array.length configs) 0.0 in
    List.iter
      (fun (p : W.Profile.t) ->
        let insts =
          max 50_000 (int_of_float (float_of_int p.total_insts *. scale))
        in
        let tr = W.Executor.trace (W.Executor.create ~insts p) in
        let rs = A.Icache_sweep.run (A.Tool.Source.of_trace tr) configs in
        Array.iteri
          (fun i r ->
            sums.(i) <- sums.(i) +. A.Icache_sweep.mpki r A.Branch_mix.Total)
          rs)
      profiles;
    let n = float_of_int (List.length profiles) in
    let mean i = sums.(i) /. n in
    let lru_mpki = mean 0 in
    let preuse_of_size sz =
      let rec idx i = function
        | s :: rest -> if s = sz then mean (i + 1) else idx (i + 1) rest
        | [] -> assert false
      in
      idx 0 sizes
    in
    let crossover =
      List.find_opt (fun sz -> preuse_of_size sz <= lru_mpki) sizes
    in
    J.Obj
      [ ("lru_mpki", J.Num lru_mpki);
        ("preuse_mpki", J.Num (preuse_of_size 16384));
        ( "crossover_size",
          match crossover with
          | Some sz -> J.Num (float_of_int sz)
          | None -> J.Null ) ]
  end

(* The distributed block (schema v9): the --workers/--remote probe in
   summary form, or null when no probe ran. [identical] is the
   byte-identity gate over every probed experiment — an N-worker
   render that diverges from -j1 by a single byte fails the file;
   [killed] counts chaos kills actually delivered under --dist-kill.
   The nested [remote] sub-block follows the same null-vs-value
   discipline: null unless --remote spawned TCP workers, else the
   registration/handshake/payload traffic of the remote transport.
   The task/lease counters come from the cumulative
   {!Repro_core.Dispatch.stats}. *)
let distributed_json () =
  if !dist_probed = 0 then J.Null
  else begin
    let s = Repro_core.Dispatch.stats () in
    let remote =
      if !dist_remote <= 0 then J.Null
      else
        J.Obj
          [ ("workers", J.Num (float_of_int !dist_remote));
            ("registrations", J.Num (float_of_int s.remote_workers));
            ("handshake_rejects", J.Num (float_of_int s.handshake_rejects));
            ("payload_rejects", J.Num (float_of_int s.payload_rejects));
            ("hb_timeouts", J.Num (float_of_int s.hb_timeouts));
            ("reconnects", J.Num (float_of_int s.reconnects));
            ("wire_artifacts", J.Num (float_of_int s.wire_artifacts)) ]
    in
    J.Obj
      [ ("workers", J.Num (float_of_int !dist_workers));
        ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("experiments", J.Num (float_of_int !dist_probed));
        ("tasks", J.Num (float_of_int s.tasks));
        ("completed", J.Num (float_of_int s.completed));
        ("reissued", J.Num (float_of_int s.reissued));
        ("worker_deaths", J.Num (float_of_int s.worker_deaths));
        ("dup_results", J.Num (float_of_int s.dup_results));
        ("killed", J.Num (float_of_int !dist_killed));
        ("identical", J.Bool !dist_identical);
        ("remote", remote) ]
  end

(* [serve] is the pre-rendered JSON of a --serve-bench run ([J.Null]
   when the load generator did not run); the schema always carries
   the field so the validator can tell "did not run" from "emitter
   regressed" — [learned] and [distributed] follow the same
   null-vs-value discipline. [learned] is the fig8p
   learned-replacement summary, null unless fig8p was benched;
   [distributed] summarizes the --workers probe. *)
let emit_json ~jobs ?(serve = J.Null) ?(learned = J.Null)
    ?(distributed = J.Null) path rows =
  let doc =
    J.Obj
      [ ("schema_version", J.Num 11.0);
        ("scale", J.Num scale);
        ("jobs", J.Num (float_of_int jobs));
        ("strict", J.Bool (Repro_core.Experiment.strict_enabled ()));
        ( "faults",
          match Repro_util.Faults.spec () with
          | Some s -> J.Str s
          | None -> J.Null );
        ("serve", serve);
        ("learned", learned);
        ("distributed", distributed);
        ("experiments", J.Arr (List.map (measurement_json ~jobs) rows)) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string doc));
  Printf.printf "wrote %s (%d experiment%s)\n\n" path (List.length rows)
    (if List.length rows = 1 then "" else "s")

(* Validator behind `--check-json`: the Makefile's bench-json target
   (and therefore `make smoke`) fails when the emitter regresses. *)
let check_json ?(expect_serve = false) ?(expect_dist = false)
    ?(expect_remote = false) path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 1)
      fmt
  in
  let contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "cannot read: %s" e
  in
  match J.of_string contents with
  | Error e -> fail "malformed JSON (%s)" e
  | Ok doc -> (
      let num row name =
        match J.member name row with
        | Some (J.Num _) -> ()
        | Some _ -> fail "field %S is not a number" name
        | None -> fail "field %S missing" name
      in
      (match J.member "schema_version" doc with
      | Some (J.Num v) when v = 11.0 -> ()
      | Some (J.Num v) -> fail "schema_version %g (want 11)" v
      | Some _ -> fail "schema_version is not a number"
      | None -> fail "top-level \"schema_version\" missing");
      let faulted =
        match J.member "faults" doc with
        | Some (J.Str _) -> true
        | _ -> false
      in
      (* A --dist-kill run sacrifices a worker mid-sweep on purpose;
         like fault injection, it proves identity, not speed. *)
      let dist_chaos =
        match J.member "distributed" doc with
        | Some (J.Obj _ as d) -> (
            match J.member "killed" d with
            | Some (J.Num v) -> v > 0.0
            | _ -> false)
        | _ -> false
      in
      (* A remote-transport probe charges dispatch for wire shipping
         and for recomputing from each worker's cold private cache;
         like chaos, it proves identity and exactly-once delivery,
         not speed, so the dist_speedup floor does not apply. *)
      let dist_remote_run =
        match J.member "distributed" doc with
        | Some (J.Obj _ as d) -> (
            match J.member "remote" d with
            | Some (J.Obj _) -> true
            | _ -> false)
        | _ -> false
      in
      (* One core means worker processes time-slice the CPU the -j1
         reference had to itself: parallel speedup is physically
         unavailable, and the speed gate degrades to an overhead
         bound (the identity and exactly-once gates are unaffected). *)
      let single_core =
        match J.member "distributed" doc with
        | Some (J.Obj _ as d) -> (
            match J.member "cores" d with
            | Some (J.Num v) -> v < 2.0
            | _ -> false)
        | _ -> false
      in
      (* The serve block: always present in v7; null when the load
         generator did not run. When a serve run is recorded, its
         latency/throughput/lag fields must be numbers and the
         byte-identity gate must have held — a daemon that serves
         even one response different from the one-shot rendering
         fails the file. *)
      (match J.member "serve" doc with
      | None -> fail "top-level \"serve\" field missing"
      | Some J.Null ->
          if expect_serve then
            fail "\"serve\" is null but --expect-serve was given \
                  (the load generator did not run)"
      | Some (J.Obj _ as s) ->
          let snum name =
            match J.member name s with
            | Some (J.Num v) -> v
            | Some _ -> fail "serve.%s is not a number" name
            | None -> fail "serve.%s missing" name
          in
          List.iter
            (fun f -> ignore (snum f))
            [ "clients"; "requests"; "wall_ms"; "throughput_rps";
              "update_lag_ms"; "errors" ];
          (match J.member "mode" s with
          | Some (J.Str ("closed" | "open")) -> ()
          | Some (J.Str m) -> fail "serve.mode %S (want closed|open)" m
          | _ -> fail "serve.mode missing or not a string");
          List.iter
            (fun f ->
              let v = snum f in
              if Float.is_nan v || v < 0.0 then
                fail "serve.%s is %g (want a non-negative number)" f v)
            [ "p50_ms"; "p90_ms"; "p99_ms"; "update_lag_ms" ];
          if snum "p50_ms" > snum "p99_ms" then
            fail "serve.p50_ms %g > p99_ms %g" (snum "p50_ms") (snum "p99_ms");
          if snum "errors" > 0.0 then
            fail "serve.errors %g > 0" (snum "errors");
          (match J.member "responses_identical" s with
          | Some (J.Bool true) -> ()
          | Some (J.Bool false) ->
              fail "serve.responses_identical is false: a concurrent \
                    response diverged from the one-shot rendering"
          | _ -> fail "serve.responses_identical missing or not a boolean")
      | Some _ -> fail "\"serve\" is neither an object nor null");
      (* The learned block: always present in v7; null when fig8p was
         not benched. When recorded, the two MPKI anchors must be
         non-negative numbers and the crossover size, if any, one of
         the swept power-of-two capacities. *)
      (match J.member "learned" doc with
      | None -> fail "top-level \"learned\" field missing"
      | Some J.Null -> ()
      | Some (J.Obj _ as l) ->
          let lnum name =
            match J.member name l with
            | Some (J.Num v) -> v
            | Some _ -> fail "learned.%s is not a number" name
            | None -> fail "learned.%s missing" name
          in
          List.iter
            (fun f ->
              let v = lnum f in
              if Float.is_nan v || v < 0.0 then
                fail "learned.%s is %g (want a non-negative number)" f v)
            [ "lru_mpki"; "preuse_mpki" ];
          (match J.member "crossover_size" l with
          | Some J.Null -> ()
          | Some (J.Num v)
            when List.mem v [ 8192.0; 16384.0; 32768.0 ] -> ()
          | Some (J.Num v) ->
              fail "learned.crossover_size %g is not a swept capacity" v
          | _ -> fail "learned.crossover_size missing or not number/null")
      | Some _ -> fail "\"learned\" is neither an object nor null");
      (* The distributed block: always present in v8; null when the
         --workers probe did not run — never a zeroed object, so "not
         run" and "ran with nothing to show" cannot be conflated.
         When recorded, the byte-identity gate must have held and no
         acknowledgement may have been double-counted; reissues and
         worker deaths are legitimate (that is the fault tolerance
         working) and only reported. *)
      (match J.member "distributed" doc with
      | None -> fail "top-level \"distributed\" field missing"
      | Some J.Null ->
          if expect_dist then
            fail "\"distributed\" is null but --expect-dist was given \
                  (the --workers probe did not run)"
      | Some (J.Obj _ as d) ->
          let dnum name =
            match J.member name d with
            | Some (J.Num v) -> v
            | Some _ -> fail "distributed.%s is not a number" name
            | None -> fail "distributed.%s missing" name
          in
          List.iter
            (fun f ->
              let v = dnum f in
              if Float.is_nan v || v < 0.0 then
                fail "distributed.%s is %g (want a non-negative number)" f v)
            [ "workers"; "cores"; "experiments"; "tasks"; "completed";
              "reissued"; "worker_deaths"; "dup_results"; "killed" ];
          (* The remote sub-block (v9): null when --remote spawned no
             TCP workers; else every transport counter non-negative
             and at least one registration — a remote probe where no
             worker ever completed the handshake proved nothing. *)
          let remote_workers =
            match J.member "remote" d with
            | None -> fail "distributed.remote missing (v9)"
            | Some J.Null ->
                if expect_remote then
                  fail "distributed.remote is null but --expect-remote \
                        was given (no TCP workers were spawned)"
                else 0.0
            | Some (J.Obj _ as r) ->
                let rnum name =
                  match J.member name r with
                  | Some (J.Num v) -> v
                  | Some _ -> fail "distributed.remote.%s is not a number" name
                  | None -> fail "distributed.remote.%s missing" name
                in
                List.iter
                  (fun f ->
                    let v = rnum f in
                    if Float.is_nan v || v < 0.0 then
                      fail
                        "distributed.remote.%s is %g (want a non-negative \
                         number)"
                        f v)
                  [ "workers"; "registrations"; "handshake_rejects";
                    "payload_rejects"; "hb_timeouts"; "reconnects";
                    "wire_artifacts" ];
                if rnum "registrations" < 1.0 then
                  fail
                    "distributed.remote.registrations %g < 1: no remote \
                     worker ever completed the handshake"
                    (rnum "registrations");
                rnum "workers"
            | Some _ ->
                fail "distributed.remote is neither an object nor null"
          in
          if dnum "workers" < 1.0 && remote_workers < 1.0 then
            fail
              "distributed.workers %g < 1 with no remote workers either"
              (dnum "workers");
          if dnum "cores" < 1.0 then
            fail "distributed.cores %g < 1 with a recorded probe"
              (dnum "cores");
          if dnum "dup_results" > 0.0 then
            fail "distributed.dup_results %g > 0: an acknowledgement was \
                  double-counted" (dnum "dup_results");
          (match J.member "identical" d with
          | Some (J.Bool true) -> ()
          | Some (J.Bool false) ->
              fail "distributed.identical is false: an N-worker rendering \
                    diverged from the in-process -j1 rendering"
          | _ -> fail "distributed.identical missing or not a boolean")
      | Some _ -> fail "\"distributed\" is neither an object nor null");
      match J.member "experiments" doc with
      | Some (J.Arr rows) ->
          List.iter
            (fun row ->
              let id =
                match J.member "id" row with
                | Some (J.Str id) -> id
                | _ -> fail "experiment entry without a string \"id\""
              in
              (match J.member "status" row with
              | Some (J.Str ("ok" | "degraded" | "failed")) -> ()
              | Some (J.Str s) -> fail "%s: unknown status %S" id s
              | Some _ -> fail "%s: \"status\" is not a string" id
              | None -> fail "%s: field \"status\" missing" id);
              List.iter (num row)
                [ "wall_ms"; "sim_insts"; "instr_per_s"; "jobs";
                  "cache_hits"; "cache_misses"; "cache_hit_rate"; "holes";
                  "tasks_ok"; "tasks_retried"; "tasks_failed";
                  "tasks_timed_out"; "faults_injected" ];
              (* Probe fields: null for experiments the probe does not
                 apply to, numbers otherwise — null always means "the
                 probe did not run here", never "ran and measured
                 zero" (a zero measurement is the number 0). *)
              let probe_field name =
                match J.member name row with
                | Some (J.Num _) -> `Num
                | None | Some J.Null -> `Null
                | Some _ -> fail "field %S is neither number nor null" name
              in
              let status_ok =
                match J.member "status" row with
                | Some (J.Str "ok") -> true
                | _ -> false
              in
              List.iter
                (fun name -> ignore (probe_field name))
                [ "seq_ms"; "par_ms"; "speedup_vs_j1"; "dist_ms";
                  "dist_speedup" ];
              (* A probe's fields travel together: a raw time without
                 its companion (or a derived speedup without its raw
                 inputs) means the emitter half-recorded a probe. And
                 no probe runs on a degraded or failed experiment, so
                 a non-ok row must be all-null. *)
              List.iter
                (fun group ->
                  let kinds = List.map probe_field group in
                  if
                    List.exists (fun k -> k = `Num) kinds
                    && List.exists (fun k -> k = `Null) kinds
                  then
                    fail "%s: probe fields %s must be all-null or \
                          all-number" id
                      (String.concat "/" group);
                  if (not status_ok) && List.exists (fun k -> k = `Num) kinds
                  then
                    fail "%s: status is not \"ok\" but probe fields %s \
                          are recorded" id
                      (String.concat "/" group))
                [ [ "seq_ms"; "par_ms"; "speedup_vs_j1" ];
                  [ "dist_ms"; "dist_speedup" ] ];
              (* Distributed gate: sharding a sweep's task space over
                 worker processes must not lose to the in-process -j1
                 run it replaces. Only gated on undisturbed runs —
                 under fault injection or chaos kills the probe proves
                 identity, not speed — and only at full strength when
                 the machine has a second core to parallelize onto; a
                 single-core box can merely bound the coordination
                 overhead (frames, journal fsyncs, context switches). *)
              let dist_floor = if single_core then 0.75 else 1.0 in
              match J.member "dist_speedup" row with
              | Some (J.Num v) when v < dist_floor && not faulted
                                    && not dist_chaos
                                    && not dist_remote_run ->
                  if single_core then
                    fail "%s: dist_speedup %.2f < %.2f (single-core \
                          overhead bound exceeded)" id v dist_floor
                  else
                    fail "%s: dist_speedup %.2f < 1.0 (distributed sweep \
                          slower than in-process -j1)" id v
              | _ -> ())
            rows;
          Printf.printf "%s: ok (%d experiment%s)\n" path (List.length rows)
            (if List.length rows = 1 then "" else "s")
      | Some _ -> fail "\"experiments\" is not an array"
      | None -> fail "top-level \"experiments\" array missing")

(* ------------------------------------------------------------------ *)
(* Load generator for the characterization daemon (--serve-bench):
   spawn an in-process Repro_core.Server on a private Unix socket,
   drive it with concurrent clients in closed- or open-loop mode,
   reload the configuration mid-run, and record request-latency
   percentiles, throughput and the measured update lag. Every
   response is compared byte-for-byte against the one-shot rendering
   (Report.run_to_string — exactly what the CLI prints), so the
   emitted responses_identical field is a correctness gate, not a
   vibe. *)

type serve_cfg = {
  sb_clients : int;
  sb_mode : [ `Closed | `Open ];
  sb_requests : int; (* total across clients *)
  sb_rps : float; (* open-loop aggregate arrival rate *)
}

let default_serve_cfg =
  { sb_clients = 4; sb_mode = `Closed; sb_requests = 40; sb_rps = 50.0 }

type serve_result = {
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

let serve_bench cfg ~jobs =
  let module S = Repro_core.Server in
  let sock = Printf.sprintf "_serve_bench_%d.sock" (Unix.getpid ()) in
  let ids = [| "fig1"; "tab1"; "fig2"; "fig3"; "fig4"; "tab2" |] in
  (* One-shot reference renderings, computed through the same code
     path the CLI's `experiment` subcommand prints. Doing this first
     also warms the in-process memo the daemon shares, so the load
     phase measures dispatch and protocol, not first-trace cost. *)
  let reference =
    Array.map
      (fun s ->
        let id = Option.get (Repro_core.Experiment.of_string s) in
        Repro_core.Report.run_to_string ~scale ~jobs id)
      ids
  in
  let per_client = max 1 (cfg.sb_requests / cfg.sb_clients) in
  let total = per_client * cfg.sb_clients in
  let workers = min 16 (cfg.sb_clients + 1) in
  let server =
    S.start
      ~config:{ (S.current_config ()) with S.scale; jobs }
      ~socket:sock ~workers ()
  in
  Printf.printf
    "==== serve bench: %d %s-loop clients, %d requests over %s ====\n%!"
    cfg.sb_clients
    (match cfg.sb_mode with `Closed -> "closed" | `Open -> "open")
    total sock;
  let responses = Atomic.make 0 in (* every outcome, ok or not *)
  let ok = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  let t_start = T.now_ns () in
  let wall_start = Unix.gettimeofday () in
  let client ci =
    let conn = S.Client.connect ~socket:sock () in
    let lats = Array.make per_client nan in
    Fun.protect
      ~finally:(fun () -> S.Client.close conn)
      (fun () ->
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
                let t =
                  wall_start
                  +. ((float_of_int ci +. (float_of_int k *. float_of_int cfg.sb_clients))
                      /. cfg.sb_rps)
                in
                let now = Unix.gettimeofday () in
                if now < t then Unix.sleepf (t -. now);
                Some t
          in
          let t0 = T.now_ns () in
          match
            S.Client.request conn
              (J.Obj
                 [ ("op", J.Str "experiment");
                   ("id", J.Str ids.(which));
                   ("seq", J.Num (float_of_int idx)) ])
          with
          | Ok resp ->
              ignore (Atomic.fetch_and_add responses 1);
              let rtt_ms = ms_since t0 in
              lats.(k) <-
                (match target with
                | None -> rtt_ms
                | Some t -> (Unix.gettimeofday () -. t) *. 1000.0);
              (match (J.member "ok" resp, J.member "text" resp) with
              | Some (J.Bool true), Some (J.Str text) ->
                  Atomic.incr ok;
                  if not (String.equal text reference.(which)) then
                    Atomic.incr mismatches
              | _ -> Atomic.incr errors)
          | Error _ ->
              ignore (Atomic.fetch_and_add responses 1);
              Atomic.incr errors
        done;
        lats)
  in
  (* Mid-run zero-downtime reload: issued once half the responses are
     in, so the remaining half runs under the bumped generation and
     stamps a load-measured update lag. The reloaded configuration is
     identical — the point is the swap, not the change. *)
  let reloader =
    Domain.spawn (fun () ->
        let conn = S.Client.connect ~socket:sock () in
        Fun.protect
          ~finally:(fun () -> S.Client.close conn)
          (fun () ->
            while
              Atomic.get responses < total / 2
              && Atomic.get responses < total
            do
              Unix.sleepf 0.002
            done;
            match S.Client.request conn (J.Obj [ ("op", J.Str "reload") ]) with
            | Ok _ -> ()
            | Error _ -> Atomic.incr errors))
  in
  let domains =
    List.init cfg.sb_clients (fun ci -> Domain.spawn (fun () -> client ci))
  in
  let lat_arrays = List.map Domain.join domains in
  Domain.join reloader;
  let wall_ms = ms_since t_start in
  (* Make sure some gated request completed after the reload, then
     read the measured lag back through the stats op. *)
  let update_lag, errors_after =
    let conn = S.Client.connect ~socket:sock () in
    Fun.protect
      ~finally:(fun () -> S.Client.close conn)
      (fun () ->
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
      (List.concat_map
         (fun a ->
           Array.to_list a |> List.filter (fun v -> not (Float.is_nan v)))
         lat_arrays)
  in
  let p50, p90, p99 =
    if Array.length lats = 0 then (nan, nan, nan)
    else
      match Repro_util.Stats.percentiles lats [ 50.0; 90.0; 99.0 ] with
      | [ a; b; c ] -> (a, b, c)
      | _ -> (nan, nan, nan)
  in
  let n_ok = Atomic.get ok in
  let n_errors = Atomic.get errors + errors_after in
  let n_mism = Atomic.get mismatches in
  let identical = n_mism = 0 && n_errors = 0 && n_ok = total in
  let result =
    { sr_clients = cfg.sb_clients;
      sr_mode = (match cfg.sb_mode with `Closed -> "closed" | `Open -> "open");
      sr_requests = n_ok;
      sr_wall_ms = wall_ms;
      sr_throughput =
        (if wall_ms > 0.0 then float_of_int n_ok /. (wall_ms /. 1000.0)
         else 0.0);
      sr_p50 = p50;
      sr_p90 = p90;
      sr_p99 = p99;
      sr_update_lag_ms = update_lag;
      sr_errors = n_errors;
      sr_identical = identical }
  in
  Printf.printf
    "  %d/%d ok, %d errors, %d mismatches\n\
    \  latency p50 %.2fms  p90 %.2fms  p99 %.2fms\n\
    \  throughput %.1f req/s, update lag %.2fms, wall %.1fms\n\
    \  responses identical to one-shot renderings: %b\n\n%!"
    n_ok total n_errors n_mism p50 p90 p99 result.sr_throughput update_lag
    wall_ms identical;
  result

let serve_json s =
  J.Obj
    [ ("clients", J.Num (float_of_int s.sr_clients));
      ("mode", J.Str s.sr_mode);
      ("requests", J.Num (float_of_int s.sr_requests));
      ("wall_ms", J.Num s.sr_wall_ms);
      ("throughput_rps", J.Num s.sr_throughput);
      ("p50_ms", J.Num s.sr_p50);
      ("p90_ms", J.Num s.sr_p90);
      ("p99_ms", J.Num s.sr_p99);
      ("update_lag_ms", J.Num s.sr_update_lag_ms);
      ("errors", J.Num (float_of_int s.sr_errors));
      ("responses_identical", J.Bool s.sr_identical) ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator substrate: one group per
   hardware structure plus the end-to-end trace generator. *)

let microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  (* Pre-generate a small dynamic trace once; benchmarks replay it. *)
  let profile = W.Suites.find "FT" in
  let executor = W.Executor.create ~insts:60_000 profile in
  let branches =
    let acc = ref [] in
    W.Executor.run executor (fun i ->
        if i.Repro_isa.Inst.kind = Repro_isa.Inst.Cond_branch then
          acc := (i.Repro_isa.Inst.addr, i.Repro_isa.Inst.taken) :: !acc);
    Array.of_list (List.rev !acc)
  in
  let insts =
    let acc = ref [] in
    W.Executor.run executor (fun i ->
        acc := (i.Repro_isa.Inst.addr, i.Repro_isa.Inst.size) :: !acc);
    Array.of_list (List.rev !acc)
  in
  let bp_test name mk =
    Test.make ~name
      (Staged.stage (fun () ->
           let p : F.Predictor.t = mk () in
           Array.iter
             (fun (pc, taken) ->
               ignore (p.F.Predictor.predict pc);
               p.F.Predictor.update pc taken)
             branches))
  in
  let tests =
    [ bp_test "gshare-small/60k-branches" F.Zoo.gshare_small;
      bp_test "tournament-small/60k-branches" F.Zoo.tournament_small;
      bp_test "tage-big/60k-branches" F.Zoo.tage_big;
      bp_test "L-gshare-small/60k-branches" (fun () ->
          F.Zoo.with_loop (F.Zoo.gshare_small ()));
      Test.make ~name:"btb-1K/60k-branches"
        (Staged.stage (fun () ->
             let b = F.Btb.create ~entries:1024 ~assoc:4 in
             Array.iter
               (fun (pc, taken) ->
                 if taken then begin
                   ignore (F.Btb.lookup b ~pc);
                   F.Btb.insert b ~pc ~target:(pc + 16)
                 end)
               branches));
      Test.make ~name:"icache-16K/60k-insts"
        (Staged.stage (fun () ->
             let c =
               F.Icache.create ~size_bytes:16384 ~line_bytes:64 ~assoc:4 ()
             in
             Array.iter
               (fun (addr, size) -> ignore (F.Icache.access c ~addr ~size))
               insts));
      Test.make ~name:"trace-generation/60k-insts"
        (Staged.stage (fun () -> W.Executor.run executor (fun _ -> ())));
      Test.make ~name:"characterize/60k-insts"
        (Staged.stage (fun () ->
             ignore
               (A.Characterization.of_trace ~name:"bench"
                  ~suite:W.Suite.Npb
                  (W.Executor.trace executor)))) ]
  in
  print_endline "==== microbenchmarks (Bechamel, monotonic clock) ====";
  let grouped = Test.make_grouped ~name:"frontend-repro" tests in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let tbl = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (t :: _) -> Printf.printf "  %-48s %12.0f ns/run\n" name t
      | Some [] | None -> Printf.printf "  %-48s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "==== ablation: per-structure contribution (NPB suite) ====";
  let insts = max 50_000 (int_of_float (1_000_000.0 *. scale)) in
  let rows =
    Repro_core.Ablation.run ~insts (W.Suites.by_suite W.Suite.Npb)
  in
  Repro_util.Table.print (Repro_core.Ablation.table rows);
  print_newline ()

let extension_study () =
  print_endline "==== extension studies (beyond the paper) ====";
  let insts = max 50_000 (int_of_float (1_000_000.0 *. scale)) in
  let benches = [ "CoMD"; "botsspar"; "FT"; "swim"; "gobmk"; "xalancbmk" ] in
  Repro_util.Table.print
    (Repro_core.Extension_study.predictor_table ~insts ~benchmarks:benches ());
  print_newline ();
  Repro_util.Table.print
    (Repro_core.Extension_study.prefetch_table ~insts
       ~benchmarks:[ "CoMD"; "FT"; "gobmk"; "xalancbmk" ] ());
  print_newline ();
  Repro_util.Table.print
    (Repro_core.Extension_study.predictability_table
       ~insts:(max 50_000 (int_of_float (500_000.0 *. scale))) ());
  print_newline ()

let thread_scaling () =
  print_endline
    "==== thread scaling: serial bottleneck vs core count (Section III-D) ====";
  let insts = max 50_000 (int_of_float (1_000_000.0 *. scale)) in
  List.iter
    (fun name ->
      let p = W.Suites.find name in
      Repro_util.Table.print
        (Repro_core.Thread_scaling.table name
           (Repro_core.Thread_scaling.sweep ~insts p));
      print_newline ())
    [ "CoEVP"; "fma3d" ]

let valid_ids () =
  String.concat " "
    (List.map Repro_core.Experiment.to_string Repro_core.Experiment.all)

(* Strip the harness flags out of the argument list, returning
   (jobs, json output file, file to validate, journal enabled,
   remaining args). Malformed [--retry] / [--timeout-ms] values warn
   on stderr and keep the default, matching the REPRO_JOBS
   convention — a typo degrades the supervision knob,
   it does not kill a run that may be hours in. *)
let parse_flags args =
  let json = ref None in
  let check = ref None in
  let journal = ref true in
  let serve = ref None in
  let expect_serve = ref false in
  let expect_dist = ref false in
  let expect_remote = ref false in
  let serve_cfg () =
    match !serve with Some c -> c | None -> default_serve_cfg
  in
  let int_flag name ~min ~max_ ~apply n =
    match int_of_string_opt n with
    | Some v when v >= min && v <= max_ -> apply v
    | Some v ->
        Printf.eprintf
          "bench: clamping %s %d to %d..%d\n%!" name v min max_;
        apply (Stdlib.max min (Stdlib.min max_ v))
    | None ->
        Printf.eprintf
          "bench: ignoring invalid %s %S (want an integer in %d..%d); \
           keeping the default\n%!"
          name n min max_
  in
  let rec go jobs acc = function
    | [] ->
        ( jobs, !json, !check, !journal, !serve, !expect_serve, !expect_dist,
          !expect_remote, List.rev acc )
    | "--workers" :: n :: rest ->
        int_flag "--workers" ~min:0 ~max_:64
          ~apply:(fun v -> dist_workers := v)
          n;
        go jobs acc rest
    | [ "--workers" ] ->
        Printf.eprintf "missing worker count after --workers\n";
        exit 2
    | "--remote" :: n :: rest ->
        int_flag "--remote" ~min:0 ~max_:64
          ~apply:(fun v -> dist_remote := v)
          n;
        go jobs acc rest
    | [ "--remote" ] ->
        Printf.eprintf "missing worker count after --remote\n";
        exit 2
    | "--dist-kill" :: rest ->
        dist_kill := true;
        go jobs acc rest
    | "--expect-dist" :: rest ->
        expect_dist := true;
        go jobs acc rest
    | "--expect-remote" :: rest ->
        expect_remote := true;
        go jobs acc rest
    | "--serve-bench" :: rest ->
        serve := Some (serve_cfg ());
        go jobs acc rest
    | "--serve-clients" :: n :: rest ->
        int_flag "--serve-clients" ~min:1 ~max_:16
          ~apply:(fun v -> serve := Some { (serve_cfg ()) with sb_clients = v })
          n;
        go jobs acc rest
    | [ "--serve-clients" ] ->
        Printf.eprintf "missing count after --serve-clients\n";
        exit 2
    | "--serve-requests" :: n :: rest ->
        int_flag "--serve-requests" ~min:1 ~max_:100_000
          ~apply:(fun v ->
            serve := Some { (serve_cfg ()) with sb_requests = v })
          n;
        go jobs acc rest
    | [ "--serve-requests" ] ->
        Printf.eprintf "missing count after --serve-requests\n";
        exit 2
    | "--serve-mode" :: m :: rest -> (
        match m with
        | "closed" ->
            serve := Some { (serve_cfg ()) with sb_mode = `Closed };
            go jobs acc rest
        | "open" ->
            serve := Some { (serve_cfg ()) with sb_mode = `Open };
            go jobs acc rest
        | _ ->
            Printf.eprintf "bad --serve-mode %S (want closed or open)\n" m;
            exit 2)
    | [ "--serve-mode" ] ->
        Printf.eprintf "missing mode after --serve-mode\n";
        exit 2
    | "--serve-rps" :: r :: rest ->
        (match float_of_string_opt r with
        | Some v when Float.is_finite v && v > 0.0 ->
            serve := Some { (serve_cfg ()) with sb_rps = v }
        | Some _ | None ->
            Printf.eprintf
              "bench: ignoring invalid --serve-rps %S (want a positive \
               rate); keeping the default\n%!"
              r);
        go jobs acc rest
    | [ "--serve-rps" ] ->
        Printf.eprintf "missing rate after --serve-rps\n";
        exit 2
    | "--expect-serve" :: rest ->
        expect_serve := true;
        go jobs acc rest
    | ("-j" | "--jobs") :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j > 0 -> go j acc rest
        | Some _ | None ->
            Printf.eprintf "bad job count %S (want a positive integer)\n" n;
            exit 2)
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "missing job count after -j\n";
        exit 2
    | "--no-cache" :: rest ->
        Repro_core.Cache.set_enabled false;
        go jobs acc rest
    | "--no-journal" :: rest ->
        journal := false;
        go jobs acc rest
    | "--strict" :: rest ->
        Repro_core.Experiment.set_strict true;
        go jobs acc rest
    | "--retry" :: n :: rest ->
        int_flag "--retry" ~min:0 ~max_:10 ~apply:Repro_core.Engine.set_retries
          n;
        go jobs acc rest
    | [ "--retry" ] ->
        Printf.eprintf "missing count after --retry\n";
        exit 2
    | "--timeout-ms" :: n :: rest ->
        int_flag "--timeout-ms" ~min:1 ~max_:max_int
          ~apply:(fun v -> Repro_core.Engine.set_timeout_ms (Some v))
          n;
        go jobs acc rest
    | [ "--timeout-ms" ] ->
        Printf.eprintf "missing milliseconds after --timeout-ms\n";
        exit 2
    | "--faults" :: spec :: rest when spec <> "" ->
        (* Faults.configure warns once per malformed entry itself. *)
        Repro_util.Faults.configure (Some spec);
        go jobs acc rest
    | [ "--faults" ] ->
        Printf.eprintf "missing spec after --faults (site:prob:seed,...)\n";
        exit 2
    | "--json" :: file :: rest when file <> "" ->
        json := Some file;
        go jobs acc rest
    | [ "--json" ] ->
        Printf.eprintf "missing output file after --json\n";
        exit 2
    | "--check-json" :: file :: rest when file <> "" ->
        check := Some file;
        go jobs acc rest
    | [ "--check-json" ] ->
        Printf.eprintf "missing input file after --check-json\n";
        exit 2
    | a :: rest -> go jobs (a :: acc) rest
  in
  go (Repro_core.Engine.default_jobs ()) [] args

(* ------------------------------------------------------------------ *)
(* Resume journal: each completed experiment's rendered text and
   measurement row are journaled; a rerun after an interruption
   replays them byte-identically and picks up at the first experiment
   the journal does not cover. Only clean ("ok") experiments are
   journaled — degraded or failed ones rerun, so transient trouble
   heals across restarts. The fingerprint ties a journal to the
   experiment list, scale, measurement mode, JSON schema and cache
   version; any mismatch starts fresh. *)

let journal_fingerprint ~measure ids =
  String.concat "|"
    ([ "schema11"; Repro_core.Cache.version; Printf.sprintf "%h" scale;
       string_of_bool measure; string_of_int !dist_workers;
       string_of_int !dist_remote; string_of_bool !dist_kill;
       (match Repro_util.Faults.spec () with Some s -> s | None -> "") ]
    @ List.map Repro_core.Experiment.to_string ids)

let journal_payload (text, row) : string =
  Marshal.to_string (text, (row : measurement option)) []

let journal_parse payload : string * measurement option =
  Marshal.from_string payload 0

let () =
  (* A process spawned as a dispatch worker (the --workers probe
     re-execs this binary) must enter the protocol loop before any
     harness logic. *)
  Repro_core.Dispatch.maybe_worker ();
  let jobs, json_out, check, use_journal, serve_req, expect_serve,
      expect_dist, expect_remote, args =
    parse_flags (List.tl (Array.to_list Sys.argv))
  in
  (match check with
  | Some path ->
      check_json ~expect_serve ~expect_dist ~expect_remote path;
      exit 0
  | None -> ());
  (* The JSON emitter needs the sim-insts counter, so recording is
     switched on; the span tree is only printed under REPRO_TRACE. *)
  if json_out <> None then T.set_enabled true;
  (match serve_req with
  | Some cfg ->
      (* Load-generator mode: drive the daemon instead of
         regenerating experiments; the emitted file still carries the
         full schema (with an empty experiment list). *)
      let result = serve_bench cfg ~jobs in
      (match json_out with
      | Some path -> emit_json ~jobs ~serve:(serve_json result) path []
      | None -> ());
      if T.env_trace then prerr_string (T.report ());
      exit (if result.sr_identical then 0 else 1)
  | None -> ());
  let extras = [ "micro"; "ablation"; "scaling"; "extension" ] in
  let wants x = args = [] || List.mem x args in
  let wants_micro = wants "micro" in
  let ids =
    match List.filter (fun a -> not (List.mem a extras)) args with
    | [] -> if args <> [] then [] else Repro_core.Experiment.all
    | picks ->
        List.map
          (fun s ->
            match Repro_core.Experiment.of_string s with
            | Some id -> id
            | None ->
                Printf.eprintf
                  "unknown experiment %S\nvalid experiment ids: %s\n\
                   extra sections: %s\n"
                  s (valid_ids ()) (String.concat " " extras);
                exit 2)
          picks
  in
  Printf.printf
    "frontend-repro benchmark harness — scale %g (set REPRO_SCALE to change)\n\n"
    scale;
  let measure = json_out <> None in
  let journal, recovered =
    if not use_journal || ids = [] then (None, [])
    else
      match
        Repro_core.Journal.open_run ~name:"bench"
          ~fingerprint:(journal_fingerprint ~measure ids)
      with
      | Some (j, recs) -> (Some j, recs)
      | None -> (None, [])
  in
  let rows = ref [] in
  (try
     List.iter
       (fun id ->
         let name = Repro_core.Experiment.to_string id in
         match List.assoc_opt name recovered with
         | Some payload ->
             (* Completed before the interruption: replay the stored
                rendering byte-for-byte instead of recomputing. *)
             let text, row = journal_parse payload in
             print_string text;
             Printf.printf "(%s resumed from journal)\n\n" name;
             Option.iter (fun r -> rows := r :: !rows) row
         | None ->
             let text, status, row = run_experiment ~jobs ~measure id in
             Option.iter (fun r -> rows := r :: !rows) row;
             if status = "ok" then
               Option.iter
                 (fun j ->
                   Repro_core.Journal.append j ~step:name
                     ~payload:(journal_payload (text, row)))
                 journal)
       ids
   with Repro_core.Failure.Error fl ->
     (* Strict-mode abort: the journal survives, so a rerun resumes
        from the last completed experiment. *)
     Printf.eprintf "bench: aborted (strict): %s\n"
       (Repro_core.Failure.to_string fl);
     Option.iter Repro_core.Journal.close journal;
     exit 1);
  let rows = List.rev !rows in
  if ids <> [] then begin
    let s = Repro_core.Engine.stats () in
    let faults = Repro_util.Faults.injected () in
    let supervision =
      if s.tasks_retried + s.tasks_failed + s.tasks_timed_out + faults = 0
      then ""
      else
        Printf.sprintf ", supervision: %d retried, %d failed, %d timed out, \
                        %d faults injected"
          s.tasks_retried s.tasks_failed s.tasks_timed_out faults
    in
    Printf.printf
      "(engine: %d tasks over <=%d domains, persistent cache: %d hits, %d \
       misses%s%s)\n\n"
      s.tasks_run s.max_domains s.cache_hits s.cache_misses
      (if Repro_core.Cache.enabled () then "" else " [disabled]")
      supervision
  end;
  (match json_out with
  | Some path ->
      emit_json ~jobs ~learned:(learned_json ids)
        ~distributed:(distributed_json ()) path rows
  | None -> ());
  (* Everything the journal covers has been produced and emitted: a
     finished run leaves no journal behind. *)
  Option.iter Repro_core.Journal.finish journal;
  if wants "ablation" then ablation ();
  if wants "scaling" then thread_scaling ();
  if wants "extension" then extension_study ();
  if wants_micro then microbenchmarks ();
  if T.env_trace then prerr_string (T.report ())
