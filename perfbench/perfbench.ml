(* The repository benchmark harness.

   Links the program's libraries and times calls into each layer's
   public functions from outside; nothing in the program is changed
   to be measured. Every workload runs the production path: packed
   replay, fused kernels, no sampling, default toggles (the runner
   strips REPRO_* from the environment), a private cache directory
   under the work directory.

   One invocation runs one workload:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   It prints one line per metric ("metric <name> <value> <unit>") and,
   as its last line, a JSON object with keys correct, attempted,
   failed and metrics. With --trace 0 the metrics are the end-to-end
   ones, timed with telemetry off (a report op renders in a fresh
   child process, this binary re-run with --report); with --trace 1
   the same calls run in this process, alternately untraced and
   traced, and the metrics are the per-layer ones (see README.md for
   the list and the prediction table). *)

module C = Repro_core
module A = Repro_analysis
module I = Repro_isa
module W = Repro_workload
module U = Repro_uarch
module F = Repro_frontend
module T = Repro_util.Telemetry
module J = Repro_util.Json
module Rng = Repro_util.Rng

let scale = 0.05

(* The benchmark host's core count. The load generator never uses more
   threads or connections than this, and every workload keeps this many
   engine domains busy at most. *)
let nproc = 2

(* ------------------------------------------------------------------ *)
(* Clock, statistics, process accounting                              *)

let now () = Int64.to_float (T.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* User + sys seconds of this process and of every reaped child. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* This process's peak resident set (VmHWM), in MB; 0 when the status
   file is unreadable. *)
let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* Restart this process's VmHWM from its current RSS. *)
let reset_peak () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)

(* Expected text of each experiment: the committed golden where one
   exists, else the first render of this run (made in setup). *)
type expect = {
  goldens : (C.Experiment.id, string) Hashtbl.t;
  firsts : (C.Experiment.id, string) Hashtbl.t;
}

let load_expect golden_dir =
  let goldens = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let path =
        Filename.concat golden_dir (C.Experiment.to_string id ^ ".expected")
      in
      if Sys.file_exists path then
        Hashtbl.replace goldens id
          (In_channel.with_open_bin path In_channel.input_all))
    C.Experiment.all;
  { goldens; firsts = Hashtbl.create 16 }

let check_text ex id text =
  let ok =
    match Hashtbl.find_opt ex.goldens id with
    | Some g -> String.equal g text
    | None -> (
        match Hashtbl.find_opt ex.firsts id with
        | Some f -> String.equal f text
        | None ->
            Hashtbl.replace ex.firsts id text;
            true)
  in
  if not ok then log "output mismatch: %s" (C.Experiment.to_string id);
  ok

let header id =
  Printf.sprintf "==== %s: %s ====\n" (C.Experiment.to_string id)
    (C.Experiment.describe id)

let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* Split a [Report.run_all_to_string] result into its per-experiment
   sections (the report is the sections joined by "\n", each opening
   with its header line). [None] when a header is missing. *)
let split_report text =
  let rec starts from = function
    | [] -> Some []
    | id :: rest -> (
        match find_from text (header id) from with
        | None -> None
        | Some i ->
            Option.map (fun l -> (id, i) :: l) (starts (i + 1) rest))
  in
  match starts 0 C.Experiment.all with
  | None -> None
  | Some positions ->
      let rec cut = function
        | [] -> []
        | [ (id, i) ] -> [ (id, String.sub text i (String.length text - i)) ]
        | (id, i) :: ((_, j) :: _ as rest) ->
            (id, String.sub text i (j - i - 1)) :: cut rest
      in
      Some (cut positions)

(* With [references_only], only the sections of ids without a golden
   are checked (or recorded, on a run's first render). *)
let check_report ?(references_only = false) ex text =
  match split_report text with
  | None ->
      log "output mismatch: report sections missing";
      false
  | Some sections ->
      List.fold_left
        (fun ok (id, section) ->
          if references_only && Hashtbl.mem ex.goldens id then ok
          else check_text ex id section && ok)
        true sections

(* ------------------------------------------------------------------ *)
(* Traced-run tallies                                                 *)

(* Per-run sums by name: spans and counters over the traced ops, and
   engine.tasks_failed over all ops. *)
let tally : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace tally name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt tally name))

let get name = Option.value ~default:0.0 (Hashtbl.find_opt tally name)

(* The layer a program span belongs to, by module; [None] leaves its
   self time unattributed (the harness's own op span, unknown names). *)
let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  if pre "experiment." || name = "report.render" then Some "report"
  else if pre "engine." then Some "engine"
  else if pre "trace." then Some "isa"
  else if pre "sweep." then Some "analysis"
  else if pre "cache." then Some "cache"
  else if pre "server." then Some "server"
  else None

let layers =
  [ "isa"; "analysis"; "engine"; "cache"; "report"; "server" ]

let ns_ms ns = Int64.to_float ns /. 1e6

(* Fold one span tree into the tally. A span's self time is its
   duration minus its children's, floored at 0: children absorbed
   from parallel worker domains can sum past their parent's wall
   time, and the recorder keeps durations, not intervals. *)
let rec fold_span (s : T.span) =
  let children =
    List.fold_left (fun acc c -> Int64.add acc c.T.stotal_ns) 0L s.schildren
  in
  let self = Float.max 0.0 (ns_ms (Int64.sub s.stotal_ns children)) in
  add
    (match layer_of s.sname with
    | Some l -> "layer." ^ l
    | None -> "layer.unattributed")
    self;
  if String.starts_with ~prefix:"experiment." s.sname then begin
    add "report.aggregate" self;
    add s.sname (ns_ms s.stotal_ns);
    add (s.sname ^ "#") 1.0
  end;
  (match s.sname with
  | "report.render" | "cache.find" | "cache.store" ->
      add s.sname (ns_ms s.stotal_ns)
  | _ -> ());
  List.iter fold_span s.schildren

let fold_counters () =
  let c name = float_of_int (T.counter name) in
  add "engine.busy" (c "engine.busy_ns" /. 1e6);
  add "cache.read_bytes" (c "cache.read_bytes");
  add "cache.write_bytes" (c "cache.write_bytes");
  add "cache.hits" (c "cache.hits");
  add "cache.misses" (c "cache.misses")

(* Run [f] with telemetry on, inside the harness's own "bench.op"
   span, and fold everything the program recorded into the tally.
   Returns [f]'s value and the op's simulated instruction count. *)
let traced_op f =
  T.reset ();
  T.set_enabled true;
  let v =
    Fun.protect
      ~finally:(fun () -> T.set_enabled false)
      (fun () -> T.with_span "bench.op" f)
  in
  List.iter
    (fun s ->
      if s.T.sname = "bench.op" then add "op" (ns_ms s.T.stotal_ns);
      fold_span s)
    (T.spans ());
  fold_counters ();
  let sim = T.counter "experiment.sim_insts" in
  add "sim_insts" (float_of_int sim);
  (v, sim)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  golden_dir : string;
  work_dir : string;
}

(* One measured phase. Latencies in ms; peak RSS in MB; [rtts] are
   serve-mixed's experiment requests, by id. *)
type phase = {
  lats : float list;
  attempted : int;
  failed : int;
  wall_s : float;
  cpu_s : float;
  peak_mb : float;
  rtts : (C.Experiment.id * float) list;
}

(* [prepare] runs once per run, outside setup_s. [setup] builds one
   fresh state; it runs [setups] times for the setup_s median, with
   [teardown] between and after. [measured n] runs the n ops of an
   untraced run. [phase ~traced n] runs n ops of a traced run, which
   alternates single untraced and traced ops when [alternate], else
   runs one untraced then one traced block (serve-mixed: its server
   hands over its spans only when it stops).
   [probe] runs once after a traced run's phases, given the untraced
   serve RTTs, and adds its own per-layer figures. *)
type workload = {
  prepare : unit -> unit;
  setups : int;
  setup : unit -> unit;
  teardown : unit -> unit;
  nominal_op_s : float;
  measured : int -> phase;
  alternate : bool;
  phase : traced:bool -> int -> phase;
  probe : (C.Experiment.id * float) list -> unit;
}

(* Sequential ops: [op ()] returns (ok, seconds of the timed call,
   peak RSS in MB). A traced op also fails when its simulated
   instruction count is not [sim]. The phase's peak RSS is the median
   over ops of each op's peak. *)
let sequential ~traced ~sim n op =
  let cpu0 = cpu_now () and t0 = now () in
  let lats = ref [] and peaks = ref [] and failed = ref 0 in
  for _ = 1 to n do
    reset_peak ();
    let s0 = now () in
    let ok, dt, peak =
      match
        if traced then begin
          let (ok, dt, peak), got = traced_op op in
          if got <> sim then
            log "simulated instructions: %d, expected %d" got sim;
          (ok && got = sim, dt, peak)
        end
        else op ()
      with
      | r -> r
      | exception e when C.Failure.capturable e ->
          log "op raised %s" (Printexc.to_string e);
          (false, now () -. s0, 0.0)
    in
    lats := (dt *. 1000.0) :: !lats;
    peaks := peak :: !peaks;
    if not ok then incr failed
  done;
  { lats = !lats; attempted = n; failed = !failed; wall_s = now () -. t0;
    cpu_s = cpu_now () -. cpu0; peak_mb = median !peaks; rtts = [] }

let use_cache_dir dir =
  rm_rf dir;
  mkdir_p dir;
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  C.Experiment.clear_cache ()

(* Render each id that has no golden, as this run's reference for it;
   a later setup's render must match the first. *)
let reference ex ~jobs ids =
  List.iter
    (fun id ->
      if
        (not (Hashtbl.mem ex.goldens id))
        && not (check_text ex id (C.Report.run_to_string ~scale ~jobs id))
      then failwith "reference render differs between setups")
    ids

let engine_failed () = (C.Engine.stats ()).C.Engine.tasks_failed

let count_engine_failures f =
  let before = engine_failed () in
  let v = f () in
  add "engine.tasks_failed" (float_of_int (engine_failed () - before));
  v

(* --- report-cold / report-warm ------------------------------------ *)

(* A report op in this process, as the traced runs make it. *)
let report_op ~cold ex () =
  C.Experiment.clear_cache ~disk:cold ();
  let text, dt =
    count_engine_failures (fun () ->
        timed (fun () -> C.Report.run_all_to_string ~scale ~jobs:2 ()))
  in
  (check_report ex text, dt, vm_hwm_mb ())

(* The child side of a measured report op: render the full report over
   the cache in [dir], then print this process's peak RSS in MB on one
   line and the report after it. *)
let child_report dir =
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  C.Dispatch.set_workers (Some 0);
  let text = C.Report.run_all_to_string ~scale ~jobs:2 () in
  Printf.printf "%.3f\n%s%!" (vm_hwm_mb ()) text

(* Run [child_report dir] in a fresh process (this binary re-run with
   --report), as a user's [repro_cli report] runs. Returns the child's
   whole life in seconds and, if it exited cleanly, the report and its
   peak RSS. In one long-lived process each op's peak RSS depends on
   how far the earlier ops grew the heap. *)
let report_in_child dir =
  let t0 = now () in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--report"; dir |]
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let dt = now () -. t0 in
  match (status, String.index_opt out '\n') with
  | Unix.WEXITED 0, Some i ->
      ( dt,
        Some
          ( String.sub out (i + 1) (String.length out - i - 1),
            float_of_string (String.sub out 0 i) ) )
  | _ ->
      log "report child failed";
      (dt, None)

(* A measured report op: the disk cache emptied first when [cold], then
   the report rendered in a fresh process. *)
let report_child_op ~cold ex dir () =
  if cold then C.Experiment.clear_cache ~disk:true ();
  match report_in_child dir with
  | dt, Some (text, peak) -> (check_report ex text, dt, peak)
  | dt, None -> (false, dt, 0.0)

let budget (p : W.Profile.t) =
  max 50_000 (int_of_float (float_of_int p.total_insts *. scale))

(* The layer probes of report-cold's traced run: the harness's own
   spans around single public calls of the compute layers, over every
   profile of [Suites.all] at the scale-0.05 budget, one profile at a
   time. Sweeps use each figure's configuration axis, spelled out here
   because [Experiment] keeps its axes private. *)
let layer_probe _ =
  let bp = Array.of_list (List.map A.Bp_sweep.of_name F.Zoo.all_names) in
  let btb =
    Array.of_list
      (List.concat_map
         (fun e -> List.map (fun a -> (e, a)) [ 2; 4; 8 ])
         [ 256; 512; 1024 ])
  in
  let fig8 =
    List.concat_map
      (fun size -> List.map (fun a -> (size, 64, a)) [ 2; 4; 8 ])
      [ 8192; 16384; 32768 ]
  in
  let fig9 =
    List.concat_map
      (fun line -> List.map (fun a -> (16384, line, a)) [ 2; 4; 8 ])
      [ 32; 64; 128 ]
  in
  let icache = Array.of_list (List.map A.Icache_sweep.cfg (fig8 @ fig9)) in
  let preuse =
    Array.of_list
      (List.map (A.Icache_sweep.cfg ~policy:F.Replacement.Preuse) fig8)
  in
  let executed = ref 0 and events = ref 0 and bytes = ref 0 in
  T.reset ();
  T.set_enabled true;
  let span name f = T.with_span ("probe." ^ name) f in
  List.iter
    (fun (p : W.Profile.t) ->
      ignore (span "codegen" (fun () -> W.Codegen.generate p));
      let ex = W.Executor.create ~insts:(budget p) p in
      span "exec" (fun () -> W.Executor.run ex (fun _ -> incr executed));
      let pt = span "capture" (fun () -> W.Executor.packed ex) in
      bytes := !bytes + I.Packed_trace.byte_size pt;
      span "replay" (fun () -> I.Packed_trace.replay pt ignore);
      ignore
        (span "charz" (fun () ->
             A.Characterization.of_trace ~name:p.name ~suite:p.suite
               (I.Packed_trace.to_trace pt)));
      let src = A.Tool.Source.of_packed pt in
      let sweep name n f =
        events := !events + (n * I.Packed_trace.length pt);
        ignore (span name f)
      in
      sweep "bp_sweep" (Array.length bp) (fun () -> A.Bp_sweep.run src bp);
      sweep "btb_sweep" (Array.length btb) (fun () -> A.Btb_sweep.run src btb);
      sweep "icache_sweep" (Array.length icache) (fun () ->
          A.Icache_sweep.run src icache);
      sweep "icache_preuse_sweep" (Array.length preuse) (fun () ->
          A.Icache_sweep.run src preuse);
      span "cmp" (fun () ->
          ignore (U.Cmp.evaluate_many ~insts:(budget p) U.Cmp.standard_configs p);
          ignore (U.Cmp.evaluate_many ~insts:(budget p) U.Cmp.learned_configs p)))
    W.Suites.all;
  T.set_enabled false;
  List.iter
    (fun s -> add s.T.sname (ns_ms s.T.stotal_ns))
    (T.spans ());
  T.reset ();
  add "probe.executed" (float_of_int !executed);
  add "probe.events" (float_of_int !events);
  add "probe.capture_bytes" (float_of_int !bytes)

let report_cold args ex =
  let dir = Filename.concat args.work_dir "cache" in
  { prepare = ignore;
    setups = 2;
    setup =
      (fun () ->
        use_cache_dir dir;
        C.Dispatch.set_workers (Some 0);
        reference ex ~jobs:2 C.Experiment.all;
        C.Experiment.clear_cache ~disk:true ());
    teardown = ignore;
    nominal_op_s = 6.2;
    measured =
      (fun n ->
        sequential ~traced:false ~sim:0 n (report_child_op ~cold:true ex dir));
    alternate = true;
    phase =
      (fun ~traced n ->
        sequential ~traced ~sim:43_950_000 n (report_op ~cold:true ex));
    probe = layer_probe }

(* Fill [dir] in a child process, so this process's heap is not the
   fill's. *)
let fill_cache dir =
  if snd (report_in_child dir) = None then failwith "cache fill failed"

let report_warm args ex =
  let dir = Filename.concat args.work_dir "cache" in
  { prepare =
      (fun () ->
        use_cache_dir dir;
        C.Dispatch.set_workers (Some 0);
        fill_cache dir);
    setups = 3;
    (* A warm-up op; its render is the reference for ids without a
       golden. *)
    setup =
      (fun () ->
        C.Experiment.clear_cache ();
        if
          not
            (check_report ~references_only:true ex
               (C.Report.run_all_to_string ~scale ~jobs:2 ()))
        then failwith "reference render differs between setups");
    teardown = ignore;
    nominal_op_s = 0.5;
    measured =
      (fun n ->
        sequential ~traced:false ~sim:0 n (report_child_op ~cold:false ex dir));
    alternate = true;
    phase =
      (fun ~traced n -> sequential ~traced ~sim:0 n (report_op ~cold:false ex));
    probe = (fun _ -> ()) }

(* --- serve-mixed -------------------------------------------------- *)

type request = Exp of C.Experiment.id | Stats | Reload

(* One client's closed-loop sequence of [n] rounds. A round asks for
   each of the 16 ids once, in an order drawn from the seed, then for
   stats; every third round ends with a reload. That is one stats
   request per 17 and one reload per 52. Only the order depends on the
   seed, so every seed asks for the same work. *)
let rounds seed client n =
  let rng = Rng.create ((seed * 7919) + client) in
  Array.init n (fun r ->
      let ids = Array.of_list (List.map (fun id -> Exp id) C.Experiment.all) in
      Rng.shuffle rng ids;
      Array.concat
        [ ids; [| Stats |]; (if r mod 3 = 2 then [| Reload |] else [||]) ])

let serve_mixed args ex =
  let sock = Filename.concat args.work_dir "serve.sock" in
  let server = ref None in
  let expected = Hashtbl.create 16 in
  let jobs = Atomic.make 2 in
  let lags = ref [] and lags_lock = Mutex.create () in
  let dir = Filename.concat args.work_dir "cache" in
  (* The daemon starts on a filled disk cache, as after a restart; the
     fill (report-cold's op) is not part of setup_s. *)
  let prepare () =
    use_cache_dir dir;
    C.Dispatch.set_workers (Some 0);
    fill_cache dir
  in
  let setup () =
    C.Experiment.clear_cache ();
    Atomic.set jobs 2;
    let config =
      { C.Server.scale; jobs = 2; sample = None; faults = None;
        packed = true; fused = true }
    in
    let t = C.Server.start ~config ~socket:sock ~workers:2 () in
    server := Some t;
    let conn = C.Server.Client.connect ~retry_for:5.0 ~socket:sock () in
    Fun.protect
      ~finally:(fun () -> C.Server.Client.close conn)
      (fun () ->
        List.iter
          (fun id ->
            match
              C.Server.Client.request conn
                (J.Obj
                   [ ("op", J.Str "experiment");
                     ("id", J.Str (C.Experiment.to_string id)) ])
            with
            | Ok _ -> ()
            | Error e -> failwith ("serve warm-up: " ^ e))
          C.Experiment.all);
    (* What every response must equal: the in-process render of the
       same id (and the golden, checked per response). *)
    List.iter
      (fun id ->
        let text = C.Report.run_to_string ~scale ~jobs:2 id in
        if not (Hashtbl.mem ex.goldens id || check_text ex id text) then
          failwith "reference render differs between setups";
        Hashtbl.replace expected id text)
      C.Experiment.all
  in
  let teardown () =
    Option.iter C.Server.stop !server;
    server := None
  in
  let request conn req =
    let body =
      match req with
      | Exp id ->
          [ ("op", J.Str "experiment"); ("id", J.Str (C.Experiment.to_string id)) ]
      | Stats -> [ ("op", J.Str "stats") ]
      | Reload ->
          let j = if Atomic.get jobs = 2 then 1 else 2 in
          Atomic.set jobs j;
          [ ("op", J.Str "reload"); ("jobs", J.Num (float_of_int j)) ]
    in
    let t0 = now () in
    let resp = C.Server.Client.request conn (J.Obj body) in
    let ms = (now () -. t0) *. 1000.0 in
    let ok =
      match resp with
      | Error _ -> false
      | Ok r -> (
          J.member "ok" r = Some (J.Bool true)
          &&
          match (req, J.member "text" r, J.member "update_lag_ms" r) with
          | Exp id, Some (J.Str text), _ ->
              String.equal text (Hashtbl.find expected id) && check_text ex id text
          | Exp _, _, _ -> false
          | Stats, _, Some (J.Num lag) ->
              Mutex.protect lags_lock (fun () -> lags := lag :: !lags);
              true
          | (Stats | Reload), _, _ -> true)
    in
    (ms, ok)
  in
  (* Closed loop: each client sends its next request when the last one
     is answered. *)
  let client seq () =
    let conn = C.Server.Client.connect ~socket:sock () in
    Fun.protect
      ~finally:(fun () -> C.Server.Client.close conn)
      (fun () ->
        Array.map (Array.map (fun req -> (req, request conn req))) seq)
  in
  (* An op is one round; its latency is the sum of its requests'. A
     single request's latency depends mostly on which id it asks for,
     so a percentile over requests jumps between ids from run to run. *)
  let phase ~traced n =
    let per_client = max 1 (n / nproc) in
    let seqs = Array.init nproc (fun k -> rounds args.seed k per_client) in
    let out = Array.make nproc [||] in
    if traced then begin
      T.reset ();
      T.set_enabled true
    end;
    reset_peak ();
    let cpu0 = cpu_now () and t0 = now () in
    let threads =
      Array.init nproc (fun k ->
          Thread.create (fun () -> out.(k) <- client seqs.(k) ()) ())
    in
    Array.iter Thread.join threads;
    let wall_s = now () -. t0 and cpu_s = cpu_now () -. cpu0 in
    let ops = Array.to_list out |> List.concat_map Array.to_list in
    let lats =
      List.map (Array.fold_left (fun acc (_, (ms, _)) -> acc +. ms) 0.0) ops
    in
    let failed =
      List.length
        (List.filter (Array.exists (fun (_, (_, ok)) -> not ok)) ops)
    in
    let all = List.concat_map Array.to_list ops in
    let rtts =
      List.filter_map
        (function Exp id, (ms, _) -> Some (id, ms) | _ -> None)
        all
    in
    let failed =
      if not traced then failed
      else begin
        (* Server domains hand their spans over when the server stops. *)
        teardown ();
        T.set_enabled false;
        let spans = T.spans () in
        List.iter fold_span spans;
        fold_counters ();
        let op = List.fold_left ( +. ) 0.0 lats in
        let served =
          List.fold_left (fun acc s -> acc +. ns_ms s.T.stotal_ns) 0.0 spans
        in
        add "op" op;
        add "layer.unattributed" (Float.max 0.0 (op -. served));
        let sim = T.counter "experiment.sim_insts" in
        add "sim_insts" (float_of_int sim);
        if sim <> 0 then begin
          log "simulated instructions: %d on memo-hot requests" sim;
          failed + 1
        end
        else failed
      end
    in
    { lats; attempted = List.length ops; failed; wall_s; cpu_s;
      peak_mb = vm_hwm_mb (); rtts }
  in
  (* server.overhead_ms: each untraced experiment request's RTT minus
     the in-process render time of the same id (median of 5, memos
     hot, as the server's are). *)
  let probe rtts =
    let inproc = Hashtbl.create 16 in
    List.iter
      (fun id ->
        Hashtbl.replace inproc id
          (1000.0
          *. median
               (List.init 5 (fun _ ->
                    snd
                      (timed (fun () ->
                           ignore (C.Report.run_to_string ~scale ~jobs:2 id)))))))
      C.Experiment.all;
    add "server.rtt_p50_ms" (median (List.map snd rtts));
    add "server.overhead_ms"
      (median (List.map (fun (id, ms) -> ms -. Hashtbl.find inproc id) rtts));
    add "server.update_lag_ms" (median !lags)
  in
  { prepare; setups = 3; setup; teardown;
    nominal_op_s = 0.17;
    measured = phase ~traced:false;
    alternate = false;
    phase;
    probe }

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let mb bytes = bytes /. 1048576.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Every per-layer metric, in print order. [traced] is the number of
   traced ops; engine.tasks_failed is tallied on every op. A metric
   the workload does not exercise reads 0. *)
let per_layer ~traced ~untraced_s ~traced_s =
  let per name = ratio (get name) traced in
  let op_ms = per "op" in
  let sweeps =
    [ "bp_sweep"; "btb_sweep"; "icache_sweep"; "icache_preuse_sweep" ]
  in
  let sweep_ms =
    List.fold_left (fun acc n -> acc +. get ("probe." ^ n)) 0.0 sweeps
  in
  [ ("workload.codegen_ms", get "probe.codegen", "ms");
    ("workload.exec_ms", get "probe.exec", "ms");
    ("workload.exec_minsts_per_s",
     ratio (get "probe.executed") (get "probe.exec" *. 1000.0), "Minst/s");
    ("isa.capture_ms", get "probe.capture", "ms");
    ("isa.capture_mb", mb (get "probe.capture_bytes"), "MB");
    ("isa.replay_ms", get "probe.replay", "ms");
    ("analysis.charz_ms", get "probe.charz", "ms") ]
  @ List.map (fun n -> ("analysis." ^ n ^ "_ms", get ("probe." ^ n), "ms")) sweeps
  @ [ ("analysis.sweep_mevents_per_s",
       ratio (get "probe.events") (sweep_ms *. 1000.0), "Mevent/s");
      ("uarch.cmp_eval_ms", get "probe.cmp", "ms");
      ("engine.busy_ms", per "engine.busy", "ms");
      ("engine.utilization",
       ratio (get "engine.busy") (get "op" *. float_of_int nproc), "ratio");
      ("engine.tasks_failed", get "engine.tasks_failed", "count");
      ("cache.store_ms", per "cache.store", "ms");
      ("cache.write_mb", mb (per "cache.write_bytes"), "MB");
      ("cache.find_ms", per "cache.find", "ms");
      ("cache.read_mb", mb (per "cache.read_bytes"), "MB");
      ("cache.hit_ratio",
       ratio (get "cache.hits") (get "cache.hits" +. get "cache.misses"),
       "ratio");
      ("report.aggregate_ms", per "report.aggregate", "ms");
      ("report.render_ms", per "report.render", "ms") ]
  @ List.map
      (fun id ->
        let n = "experiment." ^ C.Experiment.to_string id in
        (n ^ "_ms", ratio (get n) (get (n ^ "#")), "ms"))
      C.Experiment.all
  @ [ ("server.rtt_p50_ms", get "server.rtt_p50_ms", "ms");
      ("server.overhead_ms", get "server.overhead_ms", "ms");
      ("server.update_lag_ms", get "server.update_lag_ms", "ms") ]
  @ List.map (fun l -> ("layer." ^ l ^ "_ms", per ("layer." ^ l), "ms")) layers
  @ [ ("layer.unattributed_ms", per "layer.unattributed", "ms");
      ("layer.coverage",
       (if op_ms > 0.0 then 1.0 -. (per "layer.unattributed" /. op_ms)
        else 0.0),
       "ratio");
      ("sim.insts_per_op", per "sim_insts", "count");
      ("sim.minsts_per_s", ratio (get "sim_insts") (get "op" *. 1000.0), "Minst/s");
      ("trace.untraced_run_s", untraced_s, "s");
      ("trace.traced_run_s", traced_s, "s");
      ("trace.overhead_s", traced_s -. untraced_s, "s") ]

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (json_number v) unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)

let ops_for w seconds =
  max 1 (int_of_float (Float.round (seconds /. w.nominal_op_s)))

let untraced_run w n =
  w.prepare ();
  let setup_times =
    List.init w.setups (fun k ->
        if k > 0 then w.teardown ();
        snd (timed w.setup))
  in
  let p = w.measured n in
  w.teardown ();
  let wall = p.wall_s in
  ( p,
    [ ("setup_s", median setup_times, "s");
      ("run_s", wall, "s");
      ("cpu_s", p.cpu_s, "s");
      ("peak_rss_mb", p.peak_mb, "MB");
      ("op_p50_ms", median p.lats, "ms");
      ("op_p90_ms", quantile p.lats 0.9, "ms");
      ("ops_per_s", float_of_int (p.attempted - p.failed) /. wall, "1/s") ] )

let traced_run ~name w n =
  w.prepare ();
  w.setup ();
  let pairs =
    if w.alternate then
      List.init n (fun _ ->
          let u = w.phase ~traced:false 1 in
          (u, w.phase ~traced:true 1))
    else
      let u = w.phase ~traced:false n in
      [ (u, w.phase ~traced:true n) ]
  in
  let sum f = List.fold_left (fun acc (u, t) -> acc + f u + f t) 0 pairs in
  let walls f = List.fold_left (fun acc p -> acc +. (f p).wall_s) 0.0 pairs in
  w.probe (List.concat_map (fun (u, _) -> u.rtts) pairs);
  w.teardown ();
  let traced = List.fold_left (fun acc (_, t) -> acc + t.attempted) 0 pairs in
  let attempted = sum (fun p -> p.attempted) in
  let metrics =
    per_layer ~traced:(float_of_int traced) ~untraced_s:(walls fst)
      ~traced_s:(walls snd)
  in
  let value key =
    List.find_map (fun (k, v, _) -> if k = key then Some v else None) metrics
    |> Option.value ~default:0.0
  in
  let coverage = value "layer.coverage" in
  Printf.printf
    "layers: %s\nunattributed: %.1f ms of %.1f ms per traced op (coverage %.1f%%)\n\
     tracing overhead: %.3f s over %.3f s untraced\n"
    (String.concat ", "
       (List.map
          (fun l -> Printf.sprintf "%s %.1f ms" l (value ("layer." ^ l ^ "_ms")))
          layers))
    (value "layer.unattributed_ms") (ratio (get "op") (float_of_int traced))
    (100.0 *. coverage) (value "trace.overhead_s") (walls fst);
  (* The layers must account for 90% of a traced report-cold op. *)
  let covered = name <> "report-cold" || coverage >= 0.9 in
  if not covered then log "layer coverage %.3f is below 0.9" coverage;
  (covered, attempted, sum (fun p -> p.failed), metrics)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload report-cold|report-warm|serve-mixed \
     --seed N --seconds S --trace 0|1 [--golden-dir DIR] [--work-dir DIR]";
  exit 2

let parse_args argv =
  let a =
    ref
      { workload = ""; seed = 1; seconds = 10.0; trace = false;
        golden_dir = "test/golden"; work_dir = ".bench_build/perfbench" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--golden-dir" :: v :: rest -> a := { !a with golden_dir = v }; go rest
    | "--work-dir" :: v :: rest -> a := { !a with work_dir = v }; go rest
    | _ -> usage ()
  in
  (try go argv with Failure _ -> usage ());
  !a

let () =
  C.Dispatch.maybe_worker ();
  match Array.to_list Sys.argv |> List.tl with
  | [ "--report"; dir ] -> child_report dir
  | argv ->
      let args = parse_args argv in
      let ex = load_expect args.golden_dir in
      let make =
        match args.workload with
        | "report-cold" -> report_cold
        | "report-warm" -> report_warm
        | "serve-mixed" -> serve_mixed
        | _ -> usage ()
      in
      let args =
        { args with work_dir = Filename.concat args.work_dir args.workload }
      in
      mkdir_p args.work_dir;
      let w = make args ex in
      let n = ops_for w args.seconds in
      let correct, attempted, failed, metrics =
        if args.trace then traced_run ~name:args.workload w n
        else
          let p, metrics = untraced_run w n in
          Printf.printf "ops: %d; p90 has %d samples above it\n" p.attempted
            (List.length (List.filter (fun l -> l > quantile p.lats 0.9) p.lats));
          (true, p.attempted, p.failed, metrics)
      in
      rm_rf args.work_dir;
      print_result ~correct:(correct && failed = 0) ~attempted ~failed metrics
