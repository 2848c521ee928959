(* Benchmark harness: regenerates the paper's tables and figures
   (every id of Repro_core.Experiment, or the ones named on the command
   line), then the extension studies. `--json FILE` also writes the
   measurements as schema-v14 JSON and `--check-json FILE` validates
   such a file. The flags and their usage text live in one table
   ([flags]); so do the JSON fields, their gates and their sources
   ([schema]).

     REPRO_SCALE=0.05 dune exec bench/main.exe -- fig1 --json F
     dune exec bench/main.exe -- --check-json F --expect-dist

   REPRO_SCALE scales every benchmark's instruction budget (default
   1.0) and REPRO_TRACE=1 prints the telemetry span tree to stderr on
   exit. An interrupted run keeps nothing but the cache entries it
   stored: a rerun renders every experiment again, finished ones from
   cache hits (unless the cache is off). *)

module C = Repro_core
module E = Repro_core.Experiment
module D = Repro_core.Dispatch
module T = Repro_util.Telemetry
module J = Repro_util.Json

(* Malformed, non-finite and non-positive REPRO_SCALE values warn
   once and fall back to 1.0: they would poison every measurement
   derived from the instruction budget. *)
let scale = Repro_util.Env.float_positive ~name:"REPRO_SCALE" ~default:1.0 ()

let jobs = ref 1 (* -j; Engine.default_jobs unless a flag says otherwise *)
let ms_since t0 = Int64.to_float (Int64.sub (T.now_ns ()) t0) /. 1e6
let render ~jobs id = C.Report.run_to_string ~scale ~jobs id

(* ------------------------------------------------------------------ *)
(* Experiment regeneration and its perf probes. *)

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
  m_faults : int; (* injected faults that fired during this experiment *)
  m_seq_ms : float option; (* uncached -j1 probe, jobs > 1 only *)
  m_par_ms : float option; (* uncached -jN probe, jobs > 1 only *)
  m_dist_ms : float option; (* --workers N distributed probe *)
  m_dist_speedup : float option; (* in-process -j1 time / distributed time *)
}

(* Both probe runs recompute everything (memo cleared, disk cache off)
   so the speedup compares computation against computation — a warm
   disk cache would otherwise make the -j1 side look supernaturally
   fast. *)
let speedup_probe id =
  if !jobs <= 1 then (None, None)
  else begin
    let was = C.Cache.enabled () in
    C.Cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> C.Cache.set_enabled was)
      (fun () ->
        let timed j =
          E.clear_cache ();
          let t0 = T.now_ns () in
          ignore (render ~jobs:j id);
          ms_since t0
        in
        let par = timed !jobs in
        (Some (timed 1), Some par))
  end

(* Distributed-execution probe (--workers N): the experiment's task
   space sharded across N worker processes against the same render
   done fully in-process at -j1, both from cold state. The in-process
   side runs without the disk cache (pure computation); the
   distributed side runs over a fresh private cache directory — the
   only channel worker results can travel — so the ratio charges
   dispatch for its cache traffic and process round-trips. The two
   renderings must be byte-identical ([distributed.identical]).

   With --dist-kill a chaos domain SIGKILLs one worker as soon as it
   has completed a task, proving the lease re-issue path mid-probe. *)

let dist_workers = ref 0 (* --workers: local pool size *)
let dist_kill = ref false (* --dist-kill *)
let dist_probed = ref 0 (* experiments the probe ran on *)
let dist_identical = ref true (* every probe byte-identical so far *)
let dist_killed = ref 0 (* chaos kills actually delivered *)

(* Kill the first victim once a task has completed; true when a kill
   landed. *)
let chaos_killer ~stop victims =
  let c0 = (D.stats ()).completed in
  Domain.spawn (fun () ->
      let rec watch () =
        if Atomic.get stop then false
        else if (D.stats ()).completed > c0 then
          match victims () with
          | pid :: _ -> (
              try
                Unix.kill pid Sys.sigkill;
                true
              with Unix.Unix_error _ -> false)
          | [] -> false
        else begin
          Unix.sleepf 0.002;
          watch ()
        end
      in
      watch ())

let dist_probe id =
  let n = !dist_workers in
  if n <= 0 || E.tasks_for id = [] then (None, None)
  else begin
    let was_cache = C.Cache.enabled () and was_dir = C.Cache.dir () in
    let probe_dir = Printf.sprintf "_dist_probe_cache.%d" (Unix.getpid ()) in
    Fun.protect
      ~finally:(fun () ->
        D.shutdown ();
        D.set_workers None;
        C.Cache.set_dir was_dir;
        C.Cache.set_enabled was_cache;
        ignore (Sys.command ("rm -rf " ^ probe_dir)))
      (fun () ->
        (* In-process reference: no workers, no disk cache, cold memo. *)
        D.set_workers (Some 0);
        C.Cache.set_enabled false;
        E.clear_cache ();
        let t0 = T.now_ns () in
        let ref_text = render ~jobs:1 id in
        let j1_ms = ms_since t0 in
        (* Distributed run: fresh pool over a fresh private cache. *)
        C.Cache.set_dir probe_dir;
        C.Cache.set_enabled true;
        E.clear_cache ~disk:true ();
        D.set_workers (Some n);
        D.shutdown ();
        D.prewarm ();
        let stop = Atomic.make false in
        let killer =
          if !dist_kill then Some (chaos_killer ~stop D.pids) else None
        in
        let t0 = T.now_ns () in
        let dist_text = render ~jobs:1 id in
        let dist_ms = ms_since t0 in
        Atomic.set stop true;
        Option.iter (fun d -> if Domain.join d then incr dist_killed) killer;
        incr dist_probed;
        if not (String.equal ref_text dist_text) then dist_identical := false;
        (Some dist_ms, if dist_ms > 0.0 then Some (j1_ms /. dist_ms) else None))
  end

(* Run one experiment under supervision, print its rendered text and
   return its measurement row when [measure]. A failure that escapes
   the Experiment layer (a fatal class or a strict-mode abort) is
   caught here when non-strict and rendered as a marked hole, and the
   harness moves on to the next experiment. *)
let run_experiment ~measure id =
  let name = E.to_string id in
  let stats0 = C.Engine.stats () in
  let insts0 = T.counter "experiment.sim_insts" in
  let faults0 = Repro_util.Faults.injected () in
  let t0 = T.now_ns () in
  let text, status =
    match render ~jobs:!jobs id with
    | s -> (s, if E.holes () = [] then "ok" else "degraded")
    | exception e when (not (E.strict_enabled ())) && C.Failure.capturable e ->
        ( Printf.sprintf "==== %s: EXPERIMENT FAILED ====\n  %s\n\n" name
            (C.Failure.to_string (C.Failure.of_exn e)),
          "failed" )
  in
  (* Captured now: the probe runs below re-enter Experiment.run,
     which clears the per-run hole registry. *)
  let holes_n = List.length (E.holes ()) in
  let wall_ms = ms_since t0 in
  print_string text;
  Printf.printf "(%s %s in %.1fs at scale %g, %d job%s)\n\n" name
    (if status = "failed" then "FAILED" else "regenerated")
    (wall_ms /. 1000.0) scale !jobs
    (if !jobs = 1 then "" else "s");
  if not measure then None
  else begin
    (* Deltas captured before the probes, which simulate more and
       take cache misses of their own. The probes rerun the
       experiment; numbers from a degraded or failed run would
       compare apples to holes, so they only follow a clean pass. *)
    let sim_insts = T.counter "experiment.sim_insts" - insts0 in
    let s1 = C.Engine.stats () in
    let probe f = if status = "ok" then f id else (None, None) in
    let seq_ms, par_ms = probe speedup_probe in
    let dist_ms, dist_speedup = probe dist_probe in
    Some
      { m_id = name;
        m_status = status;
        m_wall_ms = wall_ms;
        m_sim_insts = sim_insts;
        m_hits = s1.cache_hits - stats0.cache_hits;
        m_misses = s1.cache_misses - stats0.cache_misses;
        m_holes = holes_n;
        m_ok = s1.tasks_run - stats0.tasks_run;
        m_retried = s1.tasks_retried - stats0.tasks_retried;
        m_failed = s1.tasks_failed - stats0.tasks_failed;
        m_faults = Repro_util.Faults.injected () - faults0;
        m_seq_ms = seq_ms;
        m_par_ms = par_ms;
        m_dist_ms = dist_ms;
        m_dist_speedup = dist_speedup }
  end

(* ------------------------------------------------------------------ *)
(* The extension studies (beyond the paper). *)

let extension_study () =
  print_endline "==== extension studies (beyond the paper) ====";
  let insts budget = max 50_000 (int_of_float (budget *. scale)) in
  let module X = C.Extension_study in
  List.iter
    (fun t ->
      Repro_util.Table.print t;
      print_newline ())
    [ X.predictor_table ~insts:(insts 1e6)
        ~benchmarks:[ "CoMD"; "botsspar"; "FT"; "swim"; "gobmk"; "xalancbmk" ]
        ();
      X.prefetch_table ~insts:(insts 1e6)
        ~benchmarks:[ "CoMD"; "FT"; "gobmk"; "xalancbmk" ]
        ();
      X.predictability_table ~insts:(insts 5e5) () ]

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: one table of blocks and fields. Each entry
   names a field, its kind, when it may be null, the gates its value
   must pass, and where the emitter reads it; the emitter and
   `--check-json` are both derived from the table. Every field is
   required; null always means "did not run here", never "ran and
   measured zero". *)

let schema_version = 14

(* What `--check-json` knows besides the file: the --expect-dist flag. *)
type ctx = { doc : J.t; expect_dist : bool }

type nulls =
  | Never
  | Nullable
  | Null_unless of string * (ctx -> bool)
      (** null is an error when the predicate holds; the string says why *)

(* A gate sees the context, the enclosing object and the (non-null)
   value, and says what is wrong with the value. *)
type gate = ctx -> J.t -> J.t -> string option

type 'a field = {
  name : string;
  kind : kind;
  nulls : nulls;
  gates : gate list;
  get : 'a -> J.t;  (** the emitter's value source *)
}

and kind =
  | Num
  | Count  (** a non-negative number *)
  | Bool
  | Str
  | Obj : 'b field list -> kind
  | Rows : 'b field list -> kind  (** an array of objects *)

let field ?(nulls = Never) ?(gates = []) kind name get =
  { name; kind; nulls; gates; get }

let emit fields v = J.Obj (List.map (fun f -> (f.name, f.get v)) fields)

let block ~nulls name fields get =
  field ~nulls (Obj fields) name (fun v ->
      Option.fold ~none:J.Null ~some:(emit fields) (get v))

let int n = J.Num (float_of_int n)
let float x = J.Num x
let opt = function Some x -> J.Num x | None -> J.Null
let num = function J.Num x -> x | _ -> nan

let member_at doc path =
  List.fold_left (fun v k -> Option.bind v (J.member k)) (Some doc) path

let num_at doc path = Option.fold ~none:nan ~some:num (member_at doc path)

let show v = String.trim (J.to_string v)

let bound want holds : gate =
 fun _ _ v ->
  if holds v then None
  else Some (Printf.sprintf "is %s (want %s)" (show v) want)

let equal x = bound (Printf.sprintf "%g" x) (fun v -> num v = x)
let at_least x = bound (Printf.sprintf ">= %g" x) (fun v -> num v >= x)
let at_most x = bound (Printf.sprintf "<= %g" x) (fun v -> num v <= x)
let is_true = bound "true" (fun v -> v = J.Bool true)

let one_of xs =
  bound
    (String.concat "|" (List.map (Printf.sprintf "%g") xs))
    (fun v -> List.mem (num v) xs)

let among ss =
  bound (String.concat "|" ss) (function
    | J.Str s -> List.mem s ss
    | _ -> false)

(* The learned block: fig8p's headline in numbers. *)
let learned_fields =
  let open E in
  [ field Count "lru_mpki" (fun l -> float l.lru_mpki);
    field Count "preuse_mpki" (fun l -> float l.preuse_mpki);
    field Num "crossover_size" ~nulls:Nullable
      (fun l -> opt (Option.map float_of_int l.crossover_size))
      ~gates:[ one_of [ 8192.0; 16384.0; 32768.0 ] ] ]

(* The distributed block (--workers): the byte-identity gate over
   every probed experiment, and no acknowledgement counted twice.
   Reissues, expiries, worker deaths, fallbacks, spawn failures and
   chaos kills are the pool's decisions and are only reported. *)
let distributed_fields =
  let open D in
  [ field Count "workers" (fun _ -> int !dist_workers) ~gates:[ at_least 1.0 ];
    field Count "cores"
      (fun _ -> int (Domain.recommended_domain_count ()))
      ~gates:[ at_least 1.0 ];
    field Count "experiments" (fun _ -> int !dist_probed);
    field Count "tasks" (fun s -> int s.tasks);
    field Count "completed" (fun s -> int s.completed);
    field Count "reissued" (fun s -> int s.reissued);
    field Count "expired" (fun s -> int s.expired);
    field Count "worker_deaths" (fun s -> int s.worker_deaths);
    field Count "fallback" (fun s -> int s.fallback);
    field Count "spawn_failures" (fun s -> int s.spawn_failures);
    field Count "dup_results"
      (fun s -> int s.dup_results)
      ~gates:[ at_most 0.0 ];
    field Count "killed" (fun _ -> int !dist_killed);
    field Bool "identical" (fun _ -> J.Bool !dist_identical) ~gates:[ is_true ] ]

(* A probe's fields travel together — a raw time without its
   companion means the emitter half-recorded a probe — and no probe
   runs on a degraded or failed experiment. *)
let travels_with group : gate =
 fun _ row _ ->
  let recorded n =
    match J.member n row with Some (J.Num _) -> true | _ -> false
  in
  if not (List.for_all recorded group) then
    Some
      (Printf.sprintf "is recorded but not all of %s are"
         (String.concat "/" group))
  else if J.member "status" row <> Some (J.Str "ok") then
    Some "is recorded on a row whose status is not \"ok\""
  else None

(* Sharding a sweep over worker processes must not lose to the
   in-process -j1 run it replaces. Fault injection and chaos kills
   prove identity, not speed, so they are exempt; on one core, where
   workers time-slice the CPU the -j1 reference had to itself, the
   floor degrades to an overhead bound. *)
let dist_floor : gate =
 fun ctx _ v ->
  let exempt =
    (match J.member "faults" ctx.doc with Some (J.Str _) -> true | _ -> false)
    || num_at ctx.doc [ "distributed"; "killed" ] > 0.0
  in
  let single_core = num_at ctx.doc [ "distributed"; "cores" ] < 2.0 in
  let floor = if single_core then 0.75 else 1.0 in
  if exempt || num v >= floor then None
  else
    Some
      (Printf.sprintf "%.2f < %.2f (%s)" (num v) floor
         (if single_core then "single-core overhead bound exceeded"
          else "distributed sweep slower than in-process -j1"))

let row_fields =
  let count get m = int (get m) in
  let probe group ?(gates = []) name get =
    field Num name get ~nulls:Nullable ~gates:(travels_with group :: gates)
  in
  let seq = probe [ "seq_ms"; "par_ms"; "speedup_vs_j1" ]
  and dist = probe [ "dist_ms"; "dist_speedup" ] in
  [ field Str "id" (fun m -> J.Str m.m_id);
    field Str "status"
      (fun m -> J.Str m.m_status)
      ~gates:[ among [ "ok"; "degraded"; "failed" ] ];
    field Num "wall_ms" (fun m -> float m.m_wall_ms);
    field Num "sim_insts" (count (fun m -> m.m_sim_insts));
    field Num "instr_per_s" (fun m ->
        float
          (if m.m_wall_ms > 0.0 then
             float_of_int m.m_sim_insts /. (m.m_wall_ms /. 1000.0)
           else 0.0));
    field Num "jobs" (fun _ -> int !jobs);
    field Num "cache_hits" (count (fun m -> m.m_hits));
    field Num "cache_misses" (count (fun m -> m.m_misses));
    field Num "cache_hit_rate" (fun m ->
        let lookups = m.m_hits + m.m_misses in
        float
          (if lookups > 0 then float_of_int m.m_hits /. float_of_int lookups
           else 0.0));
    field Num "holes" (count (fun m -> m.m_holes));
    field Num "tasks_ok" (count (fun m -> m.m_ok));
    field Num "tasks_retried" (count (fun m -> m.m_retried));
    field Num "tasks_failed" (count (fun m -> m.m_failed));
    field Num "faults_injected" (count (fun m -> m.m_faults));
    seq "seq_ms" (fun m -> opt m.m_seq_ms);
    seq "par_ms" (fun m -> opt m.m_par_ms);
    seq "speedup_vs_j1" (fun m ->
        match (m.m_seq_ms, m.m_par_ms) with
        | Some s, Some p when p > 0.0 -> J.Num (s /. p)
        | _ -> J.Null);
    dist "dist_ms" (fun m -> opt m.m_dist_ms);
    dist "dist_speedup" ~gates:[ dist_floor ] (fun m -> opt m.m_dist_speedup) ]

type run = {
  learned : E.learned option;
  measurements : measurement list;
}

(* fig8p ran clean, so the summary over its rows exists. *)
let fig8p_ok c =
  match J.member "experiments" c.doc with
  | Some (J.Arr rows) ->
      List.exists
        (fun row ->
          J.member "id" row = Some (J.Str "fig8p")
          && J.member "status" row = Some (J.Str "ok"))
        rows
  | _ -> false

let schema =
  [ field Num "schema_version"
      (fun _ -> int schema_version)
      ~gates:[ equal (float_of_int schema_version) ];
    field Num "scale" (fun _ -> float scale);
    field Num "jobs" (fun _ -> int !jobs);
    field Bool "strict" (fun _ -> J.Bool (E.strict_enabled ()));
    field Str "faults" ~nulls:Nullable (fun _ ->
        Option.fold ~none:J.Null ~some:(fun s -> J.Str s)
          (Repro_util.Faults.spec ()));
    block
      ~nulls:(Null_unless ("an ok fig8p row is recorded", fig8p_ok))
      "learned" learned_fields
      (fun r -> r.learned);
    block
      ~nulls:(Null_unless ("--expect-dist was given", fun c -> c.expect_dist))
      "distributed" distributed_fields
      (fun _ -> if !dist_probed = 0 then None else Some (D.stats ()));
    field (Rows row_fields) "experiments" (fun r ->
        J.Arr (List.map (emit row_fields) r.measurements)) ]

let plural n = if n = 1 then "" else "s"

let emit_json path run =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string (emit schema run)));
  let n = List.length run.measurements in
  Printf.printf "wrote %s (%d experiment%s)\n\n" path n (plural n)

(* Exit 1 on the first field that is missing, of the wrong kind, null
   where its rule forbids it, or outside a gate. *)
let check_json ~expect_dist path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 1)
      fmt
  in
  let doc =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> fail "malformed JSON (%s)" e
    | exception Sys_error e -> fail "cannot read: %s" e
  in
  let ctx = { doc; expect_dist } in
  let rec check : 'b. string -> 'b field list -> J.t -> unit =
   fun prefix fields obj ->
    List.iter
      (fun f ->
        let at = prefix ^ f.name in
        match (J.member f.name obj, f.nulls) with
        | None, _ -> fail "%s missing" at
        | Some J.Null, Never -> fail "%s is null" at
        | Some J.Null, Nullable -> ()
        | Some J.Null, Null_unless (why, holds) ->
            if holds ctx then fail "%s is null but %s" at why
        | Some v, _ ->
            let want what = fail "%s is %s (want %s)" at (show v) what in
            (match (f.kind, v) with
            | Num, J.Num _ | Bool, J.Bool _ | Str, J.Str _ -> ()
            | Count, J.Num x when x >= 0.0 -> ()
            | Obj sub, J.Obj _ -> check (at ^ ".") sub v
            | Rows sub, J.Arr rows ->
                List.iter
                  (fun row ->
                    match J.member "id" row with
                    | Some (J.Str id) -> check (id ^ ": ") sub row
                    | _ -> check (at ^ "[]: ") sub row)
                  rows
            | Num, _ -> want "a number"
            | Count, _ -> want "a non-negative number"
            | Bool, _ -> want "a boolean"
            | Str, _ -> want "a string"
            | Obj _, _ -> want "an object or null"
            | Rows _, _ -> want "an array");
            List.iter
              (fun gate -> Option.iter (fail "%s %s" at) (gate ctx obj v))
              f.gates)
      fields
  in
  check "" schema doc;
  let n =
    match J.member "experiments" doc with
    | Some (J.Arr l) -> List.length l
    | _ -> 0
  in
  Printf.printf "%s: ok (%d experiment%s)\n" path n (plural n)

(* ------------------------------------------------------------------ *)
(* Flags: one table gives each flag's names, its argument and its line
   of usage text. A malformed integer warns on stderr and keeps the
   default (an out-of-range integer is clamped), matching
   the REPRO_JOBS convention — a typo degrades a knob, it does not
   kill a run that may be hours in. A missing value or a bad -j is a
   usage error (exit 2). *)

let json_out = ref None
let check_file = ref None
let expect_dist = ref false

type arg = Switch of (unit -> unit) | Value of string * (string -> unit)

let switch names help f = (names, Switch f, help)
let value names meta help f = (names, Value (meta, f), help)

let int_flag name ~lo ~hi help apply =
  value [ name ] "N" help (fun n ->
      match int_of_string_opt n with
      | Some v when v >= lo && v <= hi -> apply v
      | Some v ->
          Printf.eprintf "bench: clamping %s %d to %d..%d\n%!" name v lo hi;
          apply (max lo (min hi v))
      | None ->
          Printf.eprintf
            "bench: ignoring invalid %s %S (want an integer in %d..%d); \
             keeping the default\n%!"
            name n lo hi)

let extras = [ "extension" ]

let rec flags =
  lazy
    [ value [ "-j"; "--jobs" ] "N"
        "shard trace runs over N domains (default: all cores; same results)"
        (fun n ->
          match int_of_string_opt n with
          | Some j when j > 0 -> jobs := j
          | _ -> usage_error "bad job count %S (want a positive integer)" n);
      switch [ "--no-cache" ] "ignore the persistent cache directory" (fun () ->
          C.Cache.set_enabled false);
      switch [ "--strict" ] "abort on the first failed measurement (no holes)"
        (fun () -> E.set_strict true);
      int_flag "--retry" ~lo:0 ~hi:10
        "retry budget for transient task failures (default 2)"
        C.Engine.set_retries;
      (* Faults.configure warns once per malformed entry itself. *)
      value [ "--faults" ] "SPEC" "inject faults, e.g. all:0.05:42" (fun s ->
          Repro_util.Faults.configure (Some s));
      value [ "--json" ] "FILE" "also write the measurements as JSON" (fun f ->
          json_out := Some f);
      value [ "--check-json" ] "FILE" "validate an emitted file (exit 1 if not)"
        (fun f -> check_file := Some f);
      switch [ "--expect-dist" ] "with --check-json: require a --workers probe"
        (fun () -> expect_dist := true);
      int_flag "--workers" ~lo:0 ~hi:64
        "probe each experiment sharded over N worker processes"
        (( := ) dist_workers);
      switch [ "--dist-kill" ] "SIGKILL one worker mid-probe" (fun () ->
          dist_kill := true) ]

and usage_error : 'a 'b. ('a, unit, string, 'b) format4 -> 'a =
 fun fmt ->
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "%s\nusage: main.exe [ID ...] [FLAG ...]\nvalid experiment ids: %s\n\
         extra sections: %s\n"
        msg
        (String.concat " " (List.map E.to_string E.all))
        (String.concat " " extras);
      List.iter
        (fun (names, arg, help) ->
          let meta = match arg with Switch _ -> "" | Value (m, _) -> " " ^ m in
          Printf.eprintf "  %-28s %s\n" (String.concat ", " names ^ meta) help)
        (Lazy.force flags);
      exit 2)
    fmt

(* Strip the flags out of the argument list, returning the rest. *)
let rec parse_flags = function
  | [] -> []
  | a :: rest -> (
      match
        List.find_opt (fun (names, _, _) -> List.mem a names) (Lazy.force flags)
      with
      | None -> a :: parse_flags rest
      | Some (_, Switch f, _) ->
          f ();
          parse_flags rest
      | Some (_, Value (meta, f), _) -> (
          match rest with
          | v :: rest when v <> "" ->
              f v;
              parse_flags rest
          | _ -> usage_error "missing %s after %s" meta a))

let () =
  (* A process spawned as a dispatch worker (the --workers probe
     re-execs this binary) must enter the protocol loop before any
     harness logic. *)
  D.maybe_worker ();
  jobs := C.Engine.default_jobs ();
  let args = parse_flags (List.tl (Array.to_list Sys.argv)) in
  Option.iter
    (fun path ->
      check_json ~expect_dist:!expect_dist path;
      exit 0)
    !check_file;
  (* The JSON emitter needs the sim-insts counter, so recording is
     switched on; the span tree is only printed under REPRO_TRACE. *)
  if !json_out <> None then T.set_enabled true;
  let ids =
    match List.filter (fun a -> not (List.mem a extras)) args with
    | [] -> if args = [] then E.all else []
    | picks ->
        List.map
          (fun s ->
            match E.of_string s with
            | Some id -> id
            | None -> usage_error "unknown experiment %S" s)
          picks
  in
  Printf.printf
    "frontend-repro benchmark harness — scale %g (set REPRO_SCALE to \
     change)\n\n"
    scale;
  let measure = !json_out <> None in
  let rows =
    try List.filter_map (run_experiment ~measure) ids
    with C.Failure.Error fl ->
      Printf.eprintf "bench: aborted (strict): %s\n" (C.Failure.to_string fl);
      exit 1
  in
  if ids <> [] then begin
    let s = C.Engine.stats () in
    let faults = Repro_util.Faults.injected () in
    Printf.printf
      "(engine: %d tasks over <=%d domains, persistent cache: %d hits, %d \
       misses%s%s)\n\n"
      s.tasks_run s.max_domains s.cache_hits s.cache_misses
      (if C.Cache.enabled () then "" else " [disabled]")
      (if s.tasks_retried + s.tasks_failed + faults = 0 then ""
       else
         Printf.sprintf ", supervision: %d retried, %d failed, %d faults injected"
           s.tasks_retried s.tasks_failed faults)
  end;
  Option.iter
    (fun path ->
      let learned =
        if List.mem E.Fig8p ids then E.learned ~jobs:!jobs ~scale () else None
      in
      emit_json path { learned; measurements = rows })
    !json_out;
  let wants x = args = [] || List.mem x args in
  if wants "extension" then extension_study ();
  if T.env_trace then prerr_string (T.report ())
