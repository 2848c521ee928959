module A = Repro_analysis
module W = Repro_workload
module U = Repro_uarch
module F = Repro_frontend
module Table = Repro_util.Table
module Suite = W.Suite

type id =
  | Fig1
  | Fig2
  | Tab1
  | Fig3
  | Fig4
  | Fig5
  | Fig6
  | Fig7
  | Fig8
  | Fig8p
  | Fig9
  | Tab2
  | Tab3
  | Fig10
  | Fig10p
  | Fig11

let all =
  [ Fig1; Fig2; Tab1; Fig3; Fig4; Fig5; Fig6; Fig7; Fig8; Fig8p; Fig9; Tab2;
    Tab3; Fig10; Fig10p; Fig11 ]

(* ------------------------------------------------------------------ *)
(* Memoized measurements.

   Three layers: a process-local memo table (guarded by a mutex so
   Engine workers can share it), the persistent Cache underneath it,
   and the actual trace run. Concurrent workers may race to compute
   the same key; the computation is deterministic, so the duplicate
   work is wasted but the surviving entry is identical either way. *)

let memo_lock = Mutex.create ()
let locked f = Mutex.protect memo_lock f

(* Warm-up: one supervised batch of [f] over the [items] not yet in
   [memo] under [key], so a fully memoized list runs no batch.
   Failures are swallowed; the synchronous path meets them again. *)
let warm ~jobs memo key f items =
  let cold =
    List.filter (fun x -> not (locked (fun () -> Hashtbl.mem memo (key x))))
      items
  in
  ignore (Engine.map_result ~jobs f cold)

let characterizations : (string * float, A.Characterization.t) Hashtbl.t =
  Hashtbl.create 64

(* Keyed by (cache kind, benchmark, scale); see [evaluate_cmps]. *)
let cmp_evals :
    (string * string * float, (U.Cmp.config * U.Cmp.eval) list) Hashtbl.t =
  Hashtbl.create 64

let scaled_insts (p : W.Profile.t) scale =
  max 50_000 (int_of_float (float_of_int p.total_insts *. scale))

(* Every trace actually simulated bumps this telemetry counter; the
   bench JSON emitter divides its delta by wall time to report
   simulated instructions per second. Cache hits simulate nothing
   and count nothing. *)
let note_sim_insts n = Repro_util.Telemetry.add "experiment.sim_insts" n

(* ------------------------------------------------------------------ *)
(* Strict mode and degradation holes.

   A benchmark whose supervised measurement fails (after Engine's
   retry budget) normally degrades: the failure is recorded here and
   the affected table cells render as a hole marker instead of a
   number, so one bad benchmark cannot abort a whole run. Strict mode
   ([--strict] / [REPRO_STRICT=1]) restores fail-fast: the first such
   failure raises {!Failure.Error}. *)

let strict_override = ref None
let set_strict b = strict_override := Some b

(* [REPRO_STRICT] is re-read on use (tests flip it with [putenv], and
   the Server daemon's reload path re-reads it) but validated with a
   warning only once, through {!Repro_util.Env}. *)
let strict_enabled () =
  match !strict_override with
  | Some b -> b
  | None -> Repro_util.Env.flag ~name:"REPRO_STRICT" ~default:false

(* Cell marker for a measurement lost to a failed benchmark. A bare
   "-" already means "metric not defined here"; "!" is visibly a
   casualty. *)
let hole_cell = "!"

let holes_ref : (string * Failure.t) list ref = ref []

let record_hole where (fl : Failure.t) =
  if strict_enabled () then raise (Failure.Error fl)
  else begin
    locked (fun () -> holes_ref := (where, fl) :: !holes_ref);
    Repro_util.Telemetry.incr "experiment.holes"
  end

let holes () = locked (fun () -> List.rev !holes_ref)
let clear_holes () = locked (fun () -> holes_ref := [])

(* ------------------------------------------------------------------ *)
(* Packed traces.

   Every measured figure reads each (profile, scale) instruction
   stream: the characterization behind figs 1-4, the sweeps of figs
   5-9 over many hardware configurations, and the CMP evaluations of
   figs 10, 10p and 11. The stream is captured once into a
   {!Repro_isa.Packed_trace} (~3.5 bytes per instruction) and every
   figure replays it. An LRU byte budget (REPRO_PACKED_MB, default
   512) keeps the resident set bounded; the 41 scale-1.0 captures fit
   it. Each capture and each eviction bumps a telemetry counter
   ([experiment.captures], [experiment.capture_evictions]), so a
   memo that thrashes shows in the numbers. *)

let packed_budget_bytes =
  lazy
    ((match
        Repro_util.Env.int_clamped ~name:"REPRO_PACKED_MB" ~min:1
          ~max:1_048_576 ()
      with
     | Some mb -> mb
     | None -> 512)
    * 1024 * 1024)

type packed_entry = {
  pt : Repro_isa.Packed_trace.t;
  bytes : int;
  mutable stamp : int; (* last-use clock tick, for LRU eviction *)
}

let packed_traces : (string * float, packed_entry) Hashtbl.t =
  Hashtbl.create 64

let packed_bytes = ref 0
let packed_clock = ref 0

(* Caller holds [memo_lock]. Never evicts [keep] (the entry being
   inserted may itself exceed the budget; it must still be usable). *)
let evict_packed ~keep =
  let continue_ = ref true in
  while
    !continue_
    && !packed_bytes > Lazy.force packed_budget_bytes
    && Hashtbl.length packed_traces > 1
  do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          if k = keep then acc
          else
            match acc with
            | Some (_, b) when b.stamp <= e.stamp -> acc
            | _ -> Some (k, e))
        packed_traces None
    in
    match victim with
    | None -> continue_ := false
    | Some (k, e) ->
        Hashtbl.remove packed_traces k;
        packed_bytes := !packed_bytes - e.bytes;
        Repro_util.Telemetry.incr "experiment.capture_evictions"
  done

let packed_trace scale (p : W.Profile.t) =
  let key = (p.name, scale) in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt packed_traces key with
        | Some e ->
            incr packed_clock;
            e.stamp <- !packed_clock;
            Some e.pt
        | None -> None)
  in
  match hit with
  | Some pt -> pt
  | None ->
      let pt =
        W.Executor.packed (W.Executor.create ~insts:(scaled_insts p scale) p)
      in
      Repro_util.Telemetry.incr "experiment.captures";
      let bytes = Repro_isa.Packed_trace.byte_size pt in
      locked (fun () ->
          if not (Hashtbl.mem packed_traces key) then begin
            incr packed_clock;
            Hashtbl.replace packed_traces key
              { pt; bytes; stamp = !packed_clock };
            packed_bytes := !packed_bytes + bytes;
            evict_packed ~keep:key
          end);
      pt

let clear_cache ?(disk = false) () =
  locked (fun () ->
      Hashtbl.reset characterizations;
      Hashtbl.reset cmp_evals;
      Hashtbl.reset packed_traces;
      packed_bytes := 0);
  if disk then Cache.clear ()

(* ------------------------------------------------------------------ *)
(* Helpers *)

(* Replayable source for one simulation pass of a measured figure
   (the characterization, the sweeps and the CMP evaluations all read
   the same capture); accounts the simulated instructions per pass
   exactly as a streaming run would. A capture lost to the
   [trace.capture] fault site streams this pass instead, counted in
   [experiment.capture_fallbacks]: the unsupervised render paths of
   figs 1-4, 10, 10p and 11 must not gain a fault site. *)
let source scale (p : W.Profile.t) =
  let insts = scaled_insts p scale in
  note_sim_insts insts;
  match packed_trace scale p with
  | pt -> A.Tool.Source.of_packed pt
  | exception Repro_util.Faults.Injected "trace.capture" ->
      Repro_util.Telemetry.incr "experiment.capture_fallbacks";
      A.Tool.Source.of_trace (W.Executor.trace (W.Executor.create ~insts p))

let characterize scale (p : W.Profile.t) =
  let key = (p.name, scale) in
  match locked (fun () -> Hashtbl.find_opt characterizations key) with
  | Some c -> c
  | None ->
      let c =
        Cache.memoize (Cache.key ~profile:p ~scale ~kind:"charz") (fun () ->
            A.Characterization.of_source ~name:p.name ~suite:p.suite
              (source scale p))
      in
      locked (fun () -> Hashtbl.replace characterizations key c);
      c

(* A CMP evaluation family: its cache kind and its configurations.
   fig10 and fig11 read the standard family, fig10p the learned one;
   the kinds keep the two artifact families from ever colliding. *)
let cmp_standard = ("cmp", U.Cmp.standard_configs)
let cmp_learned = ("cmpl", U.Cmp.learned_configs)

let evaluate_cmps (kind, configs) scale (p : W.Profile.t) =
  let key = (kind, p.name, scale) in
  match locked (fun () -> Hashtbl.find_opt cmp_evals key) with
  | Some e -> e
  | None ->
      (* Only the eval list is persisted; the config tags are static
         program values and are re-attached on the way out. *)
      let evals =
        Cache.memoize (Cache.key ~profile:p ~scale ~kind) (fun () ->
            U.Cmp.evaluate_source configs p (source scale p))
      in
      let tagged = List.combine configs evals in
      locked (fun () -> Hashtbl.replace cmp_evals key tagged);
      tagged

let serial = A.Branch_mix.Only Repro_isa.Section.Serial
let parallel = A.Branch_mix.Only Repro_isa.Section.Parallel
let total = A.Branch_mix.Total

(* Supervised per-benchmark map for the trace-simulating figures:
   every item runs under Engine's retry/timeout policy, and an item
   that still fails becomes [Error ()] after its failure is recorded
   as a degradation hole (or raised, in strict mode). In strict mode
   the batch also fails fast — there is no point finishing siblings
   whose results will be discarded by the raise. *)
let bench_map ~jobs ~where name_of f items =
  let results =
    Engine.map_result ~jobs ~fail_fast:(strict_enabled ()) f items
  in
  List.map2
    (fun item r ->
      match r with
      | Ok v -> Ok v
      | Error fl ->
          record_hole (where ^ "/" ^ name_of item) fl;
          Error ())
    items results

(* Sweep sharding for the fused kernels. When the Engine pool has
   more domains than there are benchmarks to shard over, the fused
   sweep's configuration axis is split into contiguous ranges and
   each (benchmark, range) pair becomes one task, so [-jN] keeps
   helping inside a single benchmark. Slicing never changes results:
   every quantity a sweep kernel shares across configurations
   (history register, line spans, set/tag decomposition) is a
   function of the instruction stream alone, so each range replays
   to exactly the state a whole-sweep run would give its slice
   (pinned in test_sweep.ml). [run_range p lo hi] must return the
   per-config results for configs [lo, hi).

   Supervision composes with slicing: a benchmark whose parts all
   survived stitches back together exactly as before; a benchmark
   with any failed part becomes one hole (the partial results are
   discarded — a row mixing real and missing configurations would
   not be renderable). *)
let sweep_map ~jobs ~where profiles nconfigs run_range =
  let nbench = List.length profiles in
  let groups = max 1 (min nconfigs (jobs / max 1 nbench)) in
  if groups = 1 then
    bench_map ~jobs ~where
      (fun (p : W.Profile.t) -> p.name)
      (fun p -> run_range p 0 nconfigs)
      profiles
  else begin
    let ranges =
      List.init groups (fun g ->
          (g * nconfigs / groups, (g + 1) * nconfigs / groups))
    in
    let tasks =
      List.concat_map (fun p -> List.map (fun r -> (p, r)) ranges) profiles
    in
    let parts =
      Array.of_list
        (Engine.map_result ~jobs ~fail_fast:(strict_enabled ())
           (fun (p, (lo, hi)) -> run_range p lo hi)
           tasks)
    in
    (* Tasks were emitted benchmark-major with ranges in ascending
       order, so benchmark [b]'s parts start at [b * groups]. *)
    List.mapi
      (fun b (p : W.Profile.t) ->
        let mine = Array.sub parts (b * groups) groups in
        match
          Array.find_map (function Error fl -> Some fl | Ok _ -> None) mine
        with
        | Some fl ->
            record_hole (where ^ "/" ^ p.name) fl;
            Error ()
        | None ->
            Ok (Array.concat (List.map Result.get_ok (Array.to_list mine))))
      profiles
  end

(* ------------------------------------------------------------------ *)
(* Persistent figure rows.

   The trace-simulating figures (5-9) aggregate one row per
   benchmark: the full value vector across the figure's configuration
   axis. Those rows are the unit of work the
   dispatch layer shards across worker processes, so they are
   memoized through the persistent {!Cache} — a worker computes and
   stores a row, the coordinator's rendering pass reads it back and
   formats it byte-identically to an in-process run, because the
   stored value is the exact payload the table code formats.

   Deliberately disk-only (no process-local memo on top): the bench
   probes re-run figures with the cache disabled and must observe a
   true recompute. A render reads each row exactly once; only the
   benchmarks that miss get their captures warmed before [compute].
   Only surviving rows are stored — a benchmark that degraded to a
   hole recomputes on every visit. *)

(* Each figure's tag carries a digest of its configuration axis, so
   editing a figure's config list can never replay a stale row from
   an older build of the same cache version. *)
let row_tag base parts =
  base ^ ":"
  ^ String.sub (Digest.to_hex (Digest.string (String.concat "," parts))) 0 8

(* A figure's row artifact: its tag, declared once, and the
   supervised computation of the rows under that tag. A render, the
   task decomposition and a dispatch worker all reach a row through
   this one value, so a tag can never be paired with the wrong rows.
   [compute ~jobs ~where scale profiles] returns one result per
   profile, in order; [where] names the measurement in a hole. *)
type 'a row_family = {
  tag : string;
  compute :
    jobs:int -> where:string -> float -> W.Profile.t list ->
    ('a, unit) result list;
}

(* [rows_cached ~jobs ~where scale rows profiles] returns what
   [rows.compute] would, but serves benchmarks whose row is already
   in the persistent cache from it and only computes (through the
   supervised bench_map/sweep_map machinery) the misses, stitching
   results back in input order. The misses' captures are warmed
   first, so sliced sweeps never race to capture one. Hit/miss
   accounting mirrors {!Cache.memoize} so the engine-stats footer and
   telemetry stay truthful. *)
let rows_cached ~jobs ~where scale rows profiles =
  let compute ps =
    warm ~jobs packed_traces
      (fun (p : W.Profile.t) -> (p.name, scale))
      (packed_trace scale) ps;
    rows.compute ~jobs ~where scale ps
  in
  if not (Cache.enabled ()) then compute profiles
  else begin
    let probed =
      List.map
        (fun (p : W.Profile.t) ->
          let k = Cache.key ~profile:p ~scale ~kind:("row." ^ rows.tag) in
          (k, Cache.find k))
        profiles
    in
    let missing =
      List.filter_map
        (fun (p, (_, hit)) -> if hit = None then Some p else None)
        (List.combine profiles probed)
    in
    let computed = ref (if missing = [] then [] else compute missing) in
    let next () =
      match !computed with
      | r :: tl ->
          computed := tl;
          r
      | [] -> invalid_arg "rows_cached: compute returned too few rows"
    in
    List.map
      (fun (k, hit) ->
        match hit with
        | Some row ->
            Engine.note_cache_hit ();
            Repro_util.Telemetry.incr "cache.hits";
            Ok row
        | None ->
            Engine.note_cache_miss ();
            Repro_util.Telemetry.incr "cache.misses";
            let r = next () in
            (match r with Ok row -> Cache.store k row | Error () -> ());
            r)
      probed
  end

(* Mean of column [i] across per-benchmark rows, skipping benchmarks
   where the metric is undefined. *)
let mean_at per_bench i =
  let values =
    List.filter_map
      (fun row ->
        let v = row.(i) in
        if Float.is_nan v then None else Some v)
      per_bench
  in
  Repro_util.Stats.mean values

(* Render a supervised per-benchmark result set as [n] aggregate
   cells. Only a complete set aggregates: if any member benchmark
   failed, every cell is a hole — silently averaging the survivors
   would present wrong data with nothing to flag it. *)
let mean_cells ?(fmt = Table.fmt_float ~decimals:2) per_bench n =
  let oks = List.filter_map Result.to_option per_bench in
  if List.length oks <> List.length per_bench then
    List.init n (fun _ -> hole_cell)
  else
    List.init n (fun i -> fmt (mean_at oks i))

(* One table row per benchmark: [cells row], or [n] holes for a
   benchmark whose measurement failed. *)
let add_bench_rows t names n cells per_bench =
  List.iter2
    (fun name row ->
      Table.add_row t
        (name
        ::
        (match row with
        | Ok r -> cells r
        | Error () -> List.init n (fun _ -> hole_cell))))
    names per_bench

(* The scopes a suite is reported over: HPC suites split into their
   serial and parallel sections. *)
let scopes suite =
  if Suite.is_hpc suite then
    [ ("total", total); ("serial", serial); ("parallel", parallel) ]
  else [ ("total", total) ]

let suite_results scale suite =
  List.map (characterize scale) (W.Suites.by_suite suite)

let mean = A.Characterization.suite_mean
let pct x = x *. 100.0
let f1 = Table.fmt_float ~decimals:1
let f2 = Table.fmt_float ~decimals:2

let paper_of assoc suite =
  match List.find_opt (fun (s, _, _) -> Suite.equal s suite) assoc with
  | Some (_, v, _) -> v
  | None -> nan

(* Per-suite, per-scope metric table with a paper column. *)
let scoped_table ~title ~metric ~paper scale =
  let t =
    Table.create ~title
      [ ("suite", Table.Left); ("total", Table.Right); ("serial", Table.Right);
        ("parallel", Table.Right); ("paper(total)", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let rs = suite_results scale suite in
      Table.add_row t
        [ Suite.to_string suite;
          f1 (mean rs (metric total));
          f1 (mean rs (metric serial));
          (if Suite.is_hpc suite then f1 (mean rs (metric parallel)) else "-");
          f1 (paper suite) ])
    Suite.all;
  t

(* ------------------------------------------------------------------ *)
(* Fig 1 *)

let fig1 ~jobs:_ scale =
  let breakdown =
    Table.create ~title:"Fig 1: dynamic branch breakdown [% of instructions]"
      ([ ("suite", Table.Left); ("scope", Table.Left) ]
      @ List.map
          (fun c -> (A.Branch_mix.category_to_string c, Table.Right))
          A.Branch_mix.categories
      @ [ ("all branches", Table.Right) ])
  in
  List.iter
    (fun suite ->
      let rs = suite_results scale suite in
      List.iter
        (fun (label, scope) ->
          Table.add_row breakdown
            ([ Suite.to_string suite; label ]
            @ List.map
                (fun c ->
                  f2
                    (pct
                       (mean rs (fun r ->
                            A.Branch_mix.fraction r.A.Characterization.mix
                              scope c))))
                A.Branch_mix.categories
            @ [ f1
                  (pct
                     (mean rs (fun r ->
                          A.Branch_mix.branch_fraction
                            r.A.Characterization.mix scope))) ]))
        (scopes suite);
      Table.add_separator breakdown)
    Suite.all;
  let vs_paper =
    scoped_table ~title:"Fig 1 (summary): branch share [%] vs paper"
      ~metric:(fun scope r ->
        pct (A.Branch_mix.branch_fraction r.A.Characterization.mix scope))
      ~paper:(paper_of Paper_data.fig1_branch_pct)
      scale
  in
  [ breakdown; vs_paper ]

(* ------------------------------------------------------------------ *)
(* Fig 2 *)

let fig2 ~jobs:_ scale =
  let t =
    Table.create
      ~title:
        "Fig 2: distribution of conditional-branch bias [% of dynamic \
         conditionals per taken-rate decile]"
      ([ ("suite", Table.Left); ("scope", Table.Left) ]
      @ List.init 10 (fun i ->
            (Printf.sprintf "%d-%d%%" (i * 10) ((i + 1) * 10), Table.Right))
      @ [ ("biased", Table.Right); ("paper", Table.Right) ])
  in
  List.iter
    (fun suite ->
      let rs = suite_results scale suite in
      List.iter
        (fun (label, scope) ->
          (* One histogram pass per benchmark and scope. *)
          let ds =
            List.map
              (fun r -> A.Branch_bias.deciles r.A.Characterization.bias scope)
              rs
          in
          let col f = f1 (pct (mean ds f)) in
          Table.add_row t
            ([ Suite.to_string suite; label ]
            @ List.init 10 (fun i -> col (fun d -> d.(i)))
            @ [ col A.Branch_bias.biased_of_deciles;
                (if label = "total" then
                   f1 (paper_of Paper_data.fig2_biased_pct suite)
                 else "") ]))
        (scopes suite);
      Table.add_separator t)
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table I *)

let tab1 ~jobs:_ scale =
  let t =
    Table.create
      ~title:"Table I: backward vs forward taken conditional branches [%]"
      [ ("suite", Table.Left); ("serial bwd", Table.Right);
        ("serial fwd", Table.Right); ("parallel bwd", Table.Right);
        ("parallel fwd", Table.Right); ("paper (bwd s/p)", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let rs = suite_results scale suite in
      let bwd scope =
        pct
          (mean rs (fun r ->
               A.Branch_bias.backward_taken_fraction r.A.Characterization.bias
                 scope))
      in
      let paper_s, paper_p =
        match
          List.find_opt
            (fun (s, _, _) -> Suite.equal s suite)
            Paper_data.tab1_backward_pct
        with
        | Some (_, s, p) -> (s, p)
        | None -> (None, None)
      in
      let show = function Some v -> f1 v | None -> "-" in
      if Suite.is_hpc suite then
        Table.add_row t
          [ Suite.to_string suite; f1 (bwd serial); f1 (100.0 -. bwd serial);
            f1 (bwd parallel); f1 (100.0 -. bwd parallel);
            Printf.sprintf "%s / %s" (show paper_s) (show paper_p) ]
      else
        Table.add_row t
          [ Suite.to_string suite; f1 (bwd total); f1 (100.0 -. bwd total);
            "-"; "-"; show paper_s ])
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 3 *)

let fig3 ~jobs:_ scale =
  let t =
    Table.create
      ~title:"Fig 3: instruction footprints [KB]"
      [ ("suite", Table.Left); ("static", Table.Right);
        ("99% dyn total", Table.Right); ("99% dyn serial", Table.Right);
        ("99% dyn parallel", Table.Right); ("paper static", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let rs = suite_results scale suite in
      let kb f =
        mean rs (fun r ->
            float_of_int (f r.A.Characterization.footprint) /. 1024.0)
      in
      let hot scope = f1 (kb (fun s -> A.Footprint.hot_bytes s scope)) in
      Table.add_row t
        [ Suite.to_string suite;
          f1 (kb (fun s -> s.A.Footprint.static_total));
          hot total;
          hot serial;
          (if Suite.is_hpc suite then hot parallel else "-");
          f1 (paper_of Paper_data.fig3_static_kb suite) ])
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 4 *)

let fig4 ~jobs:_ scale =
  let bbl =
    scoped_table ~title:"Fig 4a: average basic-block length [bytes]"
      ~metric:(fun scope r ->
        A.Bblock_stats.avg_block_bytes r.A.Characterization.bblocks scope)
      ~paper:(paper_of Paper_data.fig4_bbl_bytes)
      scale
  in
  let dist =
    scoped_table
      ~title:"Fig 4b: average distance between taken branches [bytes]"
      ~metric:(fun scope r ->
        A.Bblock_stats.avg_taken_distance r.A.Characterization.bblocks scope)
      ~paper:(fun _ -> nan)
      scale
  in
  [ bbl; dist ]

(* ------------------------------------------------------------------ *)
(* Fig 5 *)

let fig5_rows =
  let names = Array.of_list F.Zoo.all_names in
  { tag = row_tag "fig5" F.Zoo.all_names;
    compute =
      (fun ~jobs ~where scale profiles ->
        sweep_map ~jobs ~where profiles (Array.length names) (fun p lo hi ->
            let specs =
              Array.init (hi - lo) (fun i -> A.Bp_sweep.of_name names.(lo + i))
            in
            Array.map
              (fun r -> A.Bp_sweep.mpki r total)
              (A.Bp_sweep.run (source scale p) specs))) }

let fig5 ~jobs scale =
  let t =
    Table.create ~title:"Fig 5: branch MPKI per predictor configuration"
      ([ ("suite", Table.Left) ]
      @ List.map (fun n -> (n, Table.Right)) F.Zoo.all_names)
  in
  List.iter
    (fun suite ->
      let per_bench =
        rows_cached ~jobs ~where:("fig5/" ^ Suite.to_string suite) scale
          fig5_rows (W.Suites.by_suite suite)
      in
      Table.add_row t
        (Suite.to_string suite
        :: mean_cells per_bench (List.length F.Zoo.all_names));
      match List.assoc_opt suite Paper_data.fig5_mpki with
      | None -> ()
      | Some l ->
          Table.add_row t
            ("  (paper, chart-read)"
            :: List.map
                 (fun n ->
                   match List.assoc_opt n l with
                   | Some v -> f1 v
                   | None -> "-")
                 F.Zoo.all_names))
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 6 *)

let fig6_configs = [ "gshare-big"; "gshare-small"; "L-gshare-small" ]

let fig6_rows =
  { tag = row_tag "fig6" fig6_configs;
    compute =
      (fun ~jobs ~where scale profiles ->
        bench_map ~jobs ~where
          (fun (p : W.Profile.t) -> p.name)
          (fun (p : W.Profile.t) ->
            A.Bp_sweep.run (source scale p)
              (Array.of_list (List.map A.Bp_sweep.of_name fig6_configs))
            |> Array.to_list
            |> List.concat_map (fun r ->
                   List.map
                     (fun cause -> f2 (A.Bp_sweep.mpki_by_cause r total cause))
                     A.Bp_sweep.causes))
          profiles) }

let fig6 ~jobs scale =
  let t =
    Table.create
      ~title:
        "Fig 6: branch MPKI breakdown for gshare (misses on not-taken / \
         taken-backward / taken-forward)"
      ([ ("benchmark", Table.Left) ]
      @ List.concat_map
          (fun n ->
            [ (n ^ " nt", Table.Right); (n ^ " tb", Table.Right);
              (n ^ " tf", Table.Right) ])
          fig6_configs)
  in
  add_bench_rows t W.Suites.fig6_subset
    (List.length fig6_configs * List.length A.Bp_sweep.causes)
    Fun.id
    (rows_cached ~jobs ~where:"fig6" scale fig6_rows
       (List.map W.Suites.find W.Suites.fig6_subset));
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 7 *)

let btb_configs =
  List.concat_map
    (fun entries -> List.map (fun assoc -> (entries, assoc)) [ 2; 4; 8 ])
    [ 256; 512; 1024 ]

let fig7_rows =
  let configs = Array.of_list btb_configs in
  { tag =
      row_tag "fig7"
        (List.map (fun (e, a) -> Printf.sprintf "%d/%d" e a) btb_configs);
    compute =
      (fun ~jobs ~where scale profiles ->
        sweep_map ~jobs ~where profiles (Array.length configs) (fun p lo hi ->
            Array.map
              (fun r -> A.Btb_sweep.mpki r total)
              (A.Btb_sweep.run (source scale p)
                 (Array.sub configs lo (hi - lo))))) }

let fig7 ~jobs scale =
  let t =
    Table.create ~title:"Fig 7: BTB MPKI (entries x associativity)"
      ([ ("suite", Table.Left) ]
      @ List.map
          (fun (e, a) -> (Printf.sprintf "%de/%dw" e a, Table.Right))
          btb_configs)
  in
  List.iter
    (fun suite ->
      let per_bench =
        rows_cached ~jobs ~where:("fig7/" ^ Suite.to_string suite) scale
          fig7_rows (W.Suites.by_suite suite)
      in
      Table.add_row t
        (Suite.to_string suite
        :: mean_cells per_bench (List.length btb_configs)))
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 8 / Fig 9 *)

(* Stable signature for one I-cache sweep configuration, digested
   into the figure's row tag. *)
let icache_cfg_sig (c : A.Icache_sweep.config) =
  Printf.sprintf "%d/%d/%d/%s" c.size_bytes c.line_bytes c.assoc
    (F.Replacement.spec_to_string c.policy)

let icache_rows base configs =
  let carr = Array.of_list configs in
  { tag = row_tag base (List.map icache_cfg_sig configs);
    compute =
      (fun ~jobs ~where scale profiles ->
        sweep_map ~jobs ~where profiles (Array.length carr) (fun p lo hi ->
            Array.map
              (fun r -> A.Icache_sweep.mpki r total)
              (A.Icache_sweep.run (source scale p)
                 (Array.sub carr lo (hi - lo))))) }

(* One row per suite (suite means), or one per benchmark of
   [benchmarks] when given. *)
let icache_table ~jobs ~rows ~where:where_root ~title ~configs ?benchmarks
    scale =
  let t =
    Table.create ~title
      ([ ((if benchmarks = None then "suite" else "benchmark"), Table.Left) ]
      @ List.map
          (fun (c : A.Icache_sweep.config) ->
            let geom =
              Printf.sprintf "%dK/%dB/%dw" (c.size_bytes / 1024) c.line_bytes
                c.assoc
            in
            (* Learned-policy columns carry a "+P" marker; plain LRU
               keeps the historical label (and golden tables). *)
            ( (if c.policy = F.Replacement.Lru then geom else geom ^ "+P"),
              Table.Right ))
          configs)
  in
  (match benchmarks with
  | None ->
      List.iter
        (fun suite ->
          let where = where_root ^ "/" ^ Suite.to_string suite in
          let per_bench =
            rows_cached ~jobs ~where scale rows (W.Suites.by_suite suite)
          in
          Table.add_row t
            (Suite.to_string suite
            :: mean_cells per_bench (List.length configs)))
        Suite.all
  | Some names ->
      add_bench_rows t names (List.length configs)
        (fun arr -> Array.to_list (Array.map f2 arr))
        (rows_cached ~jobs ~where:where_root scale rows
           (List.map W.Suites.find names)));
  t

let fig8_points =
  List.concat_map
    (fun size -> List.map (fun a -> (size, 64, a)) [ 2; 4; 8 ])
    [ 8192; 16384; 32768 ]

let fig8_cfgs = List.map A.Icache_sweep.cfg fig8_points
let fig8_rows = icache_rows "fig8" fig8_cfgs

let fig8p_cfgs =
  List.map (A.Icache_sweep.cfg ~policy:F.Replacement.Preuse) fig8_points

let fig8p_rows = icache_rows "fig8p" fig8p_cfgs

let fig8ph_cfgs =
  [ A.Icache_sweep.cfg (32768, 64, 4);
    A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (16384, 64, 4) ]

let fig8ph_rows = icache_rows "fig8ph" fig8ph_cfgs

let fig9_cfgs =
  List.map A.Icache_sweep.cfg
    (List.concat_map
       (fun line -> List.map (fun a -> (16384, line, a)) [ 2; 4; 8 ])
       [ 32; 64; 128 ])

let fig9_rows = icache_rows "fig9" fig9_cfgs

(* Fig 9's companion metric: 128B-line usefulness on one fixed
   geometry. *)
let fig9u_rows =
  { tag = row_tag "fig9u" [ "16384/128/8" ];
    compute =
      (fun ~jobs ~where scale profiles ->
        bench_map ~jobs ~where
          (fun (p : W.Profile.t) -> p.name)
          (fun (p : W.Profile.t) ->
            let r =
              A.Icache_sweep.run (source scale p)
                [| A.Icache_sweep.cfg (16384, 128, 8) |]
            in
            A.Icache_sweep.usefulness r.(0))
          profiles) }

let fig8 ~jobs scale =
  [ icache_table ~jobs ~rows:fig8_rows ~where:"fig8"
      ~title:"Fig 8: I-cache MPKI (64B lines)" ~configs:fig8_cfgs scale ]

(* Fig 8p: the fig8 size/associativity sweep re-run under the
   perceptron reuse/bypass policy, plus a headline mixed-policy sweep
   answering the ROADMAP question directly — does a 16KB learned
   I-cache beat the 32KB LRU baseline? *)
let fig8p ~jobs scale =
  [ icache_table ~jobs ~rows:fig8p_rows ~where:"fig8p"
      ~title:"Fig 8p: I-cache MPKI, perceptron reuse/bypass (64B lines)"
      ~configs:fig8p_cfgs scale;
    icache_table ~jobs ~rows:fig8ph_rows ~where:"fig8p-headline"
      ~title:"Fig 8p (headline): 16KB preuse vs 32KB LRU (64B, 4-way)"
      ~configs:fig8ph_cfgs scale ]

type learned = {
  lru_mpki : float;
  preuse_mpki : float;
  crossover_size : int option;
}

(* Read back from fig8p's own rows, so a bench that just rendered
   fig8p pays nothing but cache reads. *)
let learned ?jobs ~scale () =
  let jobs =
    match jobs with Some j -> j | None -> Engine.default_jobs ()
  in
  let all_rows rows =
    let per_bench =
      rows_cached ~jobs ~where:"learned" scale rows W.Suites.all
    in
    let oks = List.filter_map Result.to_option per_bench in
    if List.length oks = List.length per_bench then Some oks else None
  in
  match (all_rows fig8ph_rows, all_rows fig8p_rows) with
  | Some headline, Some sweep ->
      let n = float_of_int (List.length W.Suites.all) in
      let mean i rows =
        List.fold_left (fun acc r -> acc +. r.(i)) 0.0 rows /. n
      in
      let lru_mpki = mean 0 headline in
      Some
        { lru_mpki;
          preuse_mpki = mean 1 headline;
          (* fig8_points is size-major and ascending, so the first
             4-way point that matches is the smallest size. *)
          crossover_size =
            List.find_mapi
              (fun i (size, _, assoc) ->
                if assoc = 4 && mean i sweep <= lru_mpki then Some size
                else None)
              fig8_points }
  | _ -> None

let fig9 ~jobs scale =
  let mpki_tbl =
    icache_table ~jobs ~rows:fig9_rows ~where:"fig9"
      ~title:"Fig 9: I-cache MPKI across line widths (16KB)"
      ~configs:fig9_cfgs ~benchmarks:W.Suites.fig9_subset scale
  in
  (* Line usefulness, paper Section IV-C *)
  let useful =
    Table.create ~title:"Fig 9 (companion): 128B-line usefulness"
      [ ("suite", Table.Left); ("usefulness", Table.Right);
        ("paper", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let per_bench =
        rows_cached ~jobs
          ~where:("fig9-usefulness/" ^ Suite.to_string suite)
          scale fig9u_rows (W.Suites.by_suite suite)
      in
      let measured =
        mean_cells ~fmt:Table.fmt_pct
          (List.map (Result.map (fun v -> [| v |])) per_bench)
          1
      in
      Table.add_row useful
        [ Suite.to_string suite; List.hd measured;
          (if Suite.is_hpc suite then
             Table.fmt_pct Paper_data.fig9_line_usefulness_hpc
           else Table.fmt_pct Paper_data.fig9_line_usefulness_int) ])
    Suite.all;
  [ mpki_tbl; useful ]

(* ------------------------------------------------------------------ *)
(* Table II *)

let tab2 ~jobs:_ _ =
  let t =
    Table.create
      ~title:"Table II: predictor size parameters and hardware budgets"
      [ ("predictor", Table.Left); ("parameters", Table.Left);
        ("budget", Table.Right); ("paper target", Table.Right) ]
  in
  let row name params maker target =
    let p : F.Predictor.t = maker () in
    Table.add_row t
      [ name; params;
        Repro_util.Units.pp_bytes (F.Predictor.storage_bytes p); target ]
  in
  row "gshare-small" "m=13" F.Zoo.gshare_small "~2KB";
  row "gshare-big" "m=16" F.Zoo.gshare_big "~16KB";
  row "tournament-small" "n=10, m=8" F.Zoo.tournament_small "~2KB";
  row "tournament-big" "n=12, m=14" F.Zoo.tournament_big "~16KB";
  row "tage-small" "2 tables, h=4,16" F.Zoo.tage_small "~2KB";
  row "tage-big" "12 tables, h=4..640" F.Zoo.tage_big "~16KB";
  row "perceptron-small" "128 entries, h=15" F.Zoo.perceptron_small "~2KB";
  row "perceptron-big" "512 entries, h=31" F.Zoo.perceptron_big "~16KB";
  row "loop predictor" "64 entries"
    (fun () ->
      let lbp = F.Loop_predictor.create () in
      F.Predictor.make ~name:"lbp" ~step:(fun _ _ -> false)
        ~storage_bits:(F.Loop_predictor.storage_bits lbp))
    "~0.5KB";
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table III *)

(* Each design point's budget, core area and core power: static, but
   [Mcpat.budget] builds real I-cache and BTB instances, so they are
   computed once per process. *)
let tab3_points = ref None

let tab3_model () =
  let point cfg =
    (U.Mcpat.budget cfg, U.Mcpat.core_area_mm2 cfg, U.Mcpat.core_power_w cfg)
  in
  locked (fun () ->
      if !tab3_points = None then
        tab3_points :=
          Some (point U.Frontend_config.baseline,
                point U.Frontend_config.tailored);
      Option.get !tab3_points)

let tab3 ~jobs:_ _ =
  let t =
    Table.create
      ~title:"Table III: front-end structures on the core budget (40nm)"
      [ ("structure", Table.Left); ("area mm2", Table.Right);
        ("paper", Table.Right); ("power W", Table.Right);
        ("paper", Table.Right) ]
  in
  let row name area paper_area power paper_power =
    Table.add_row t
      [ name; Table.fmt_float ~decimals:3 area;
        Table.fmt_float ~decimals:3 paper_area;
        Table.fmt_float ~decimals:3 power;
        Table.fmt_float ~decimals:3 paper_power ]
  in
  let open Paper_data in
  let (b, b_area, b_power), (tl, tl_area, tl_power) = tab3_model () in
  row "baseline core" b_area tab3_baseline_core.area_mm2 b_power
    tab3_baseline_core.power_w;
  row "  I-cache 32KB/64B" b.icache_mm2 tab3_baseline_icache.area_mm2
    b.icache_w tab3_baseline_icache.power_w;
  row "  BP 16KB" b.bp_mm2 tab3_baseline_bp.area_mm2 b.bp_w
    tab3_baseline_bp.power_w;
  row "  BTB 2K" b.btb_mm2 tab3_baseline_btb.area_mm2 b.btb_w
    tab3_baseline_btb.power_w;
  Table.add_separator t;
  row "tailored core" tl_area tab3_tailored_core.area_mm2 tl_power
    tab3_tailored_core.power_w;
  row "  I-cache 16KB/128B" tl.icache_mm2 tab3_tailored_icache.area_mm2
    tl.icache_w tab3_tailored_icache.power_w;
  row "  BP 2.5KB+LBP" tl.bp_mm2 tab3_tailored_bp.area_mm2 tl.bp_w
    tab3_tailored_bp.power_w;
  row "  BTB 256" tl.btb_mm2 tab3_tailored_btb.area_mm2 tl.btb_w
    tab3_tailored_btb.power_w;
  let headline =
    Table.create ~title:"Headline savings (tailored vs baseline core)"
      [ ("metric", Table.Left); ("measured", Table.Right);
        ("paper", Table.Right) ]
  in
  (* As [Mcpat.area_saving_vs_baseline] and [power_saving_vs_baseline]. *)
  Table.add_row headline
    [ "core area saving"; Table.fmt_pct (1.0 -. (tl_area /. b_area));
      Table.fmt_pct headline_area_saving ];
  Table.add_row headline
    [ "core power saving"; Table.fmt_pct (1.0 -. (tl_power /. b_power));
      Table.fmt_pct headline_power_saving ];
  [ t; headline ]

(* ------------------------------------------------------------------ *)
(* Fig 10 / Fig 11 *)

(* Shared shape of fig10/fig10p: one table per metric, suites as
   rows, one column per CMP configuration, every cell normalized to
   the Baseline CMP of the same evaluation family. *)
let cmp_suite_tables ~fig ((_, configs) as family) scale =
  let metrics =
    [ ("time", fun (e : U.Cmp.eval) -> e.time);
      ("power", fun e -> e.power);
      ("energy", fun e -> e.energy);
      ("ED", fun e -> e.ed) ]
  in
  List.map
    (fun (mname, get) ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Fig %s (%s): normalized to the Baseline CMP, per suite" fig
               mname)
          ([ ("suite", Table.Left) ]
          @ List.map
              (fun (c : U.Cmp.config) -> (c.cname, Table.Right))
              configs)
      in
      List.iter
        (fun suite ->
          let per_bench =
            List.map (evaluate_cmps family scale) (W.Suites.by_suite suite)
          in
          let ratios =
            List.map
              (fun (cfg : U.Cmp.config) ->
                let values =
                  List.map
                    (fun evals ->
                      let base = List.assoc U.Cmp.baseline_cmp evals in
                      let e = List.assoc cfg evals in
                      get (U.Cmp.relative e ~baseline:base))
                    per_bench
                in
                Repro_util.Stats.mean values)
              configs
          in
          Table.add_row t
            (Suite.to_string suite :: List.map (fun v -> f2 v) ratios))
        Suite.all;
      t)
    metrics

let fig10 ~jobs:_ = cmp_suite_tables ~fig:"10" cmp_standard
let fig10p ~jobs:_ = cmp_suite_tables ~fig:"10p" cmp_learned

let fig11 ~jobs:_ scale =
  let t =
    Table.create
      ~title:"Fig 11: normalized execution time, per benchmark"
      ([ ("benchmark", Table.Left) ]
      @ List.map
          (fun (c : U.Cmp.config) -> (c.cname, Table.Right))
          U.Cmp.standard_configs
      @ [ ("paper (T / A++)", Table.Right) ])
  in
  List.iter
    (fun name ->
      let evals = evaluate_cmps cmp_standard scale (W.Suites.find name) in
      let base = List.assoc U.Cmp.baseline_cmp evals in
      let ratios =
        List.map
          (fun (cfg : U.Cmp.config) ->
            (U.Cmp.relative (List.assoc cfg evals) ~baseline:base).U.Cmp.time)
          U.Cmp.standard_configs
      in
      let paper =
        match List.assoc_opt name Paper_data.fig11_time with
        | Some l ->
            Printf.sprintf "%s / %s"
              (match List.assoc_opt "Tailored" l with
              | Some v -> f2 v
              | None -> "-")
              (match List.assoc_opt "Asymmetric++" l with
              | Some v -> f2 v
              | None -> "-")
        | None -> "-"
      in
      Table.add_row t ((name :: List.map f2 ratios) @ [ paper ]))
    W.Suites.fig11_subset;
  [ t ]

(* ------------------------------------------------------------------ *)
(* The figure table.

   Every figure is declared once, in [figure]: its key, description,
   renderer and [needs], the artifact families it reads (each over the
   benchmarks it reads it for). The task decomposition, the prefetch
   and the dispatch worker's task runner all derive from [needs], so
   adding a figure means adding one arm to [figure] and its
   constructor to [id] and [all]. *)

type need =
  | Charz of W.Profile.t list
  | Cmp of (string * U.Cmp.config list) * W.Profile.t list
  | Rows : 'a row_family * W.Profile.t list -> need

type figure = {
  name : string;
  describe : string;
  needs : need list;
  render : jobs:int -> float -> Table.t list;
}

let figure id =
  let fig name needs render describe = { name; describe; needs; render } in
  let charz = [ Charz W.Suites.all ] in
  let rows family = Rows (family, W.Suites.all) in
  let subset = List.map W.Suites.find in
  match id with
  | Fig1 -> fig "fig1" charz fig1
      "Dynamic branch instruction breakdown per suite (% of instructions)"
  | Fig2 -> fig "fig2" charz fig2
      "Distribution of conditional-branch directions (bias deciles)"
  | Tab1 -> fig "tab1" charz tab1
      "Backward vs forward taken conditional branches"
  | Fig3 -> fig "fig3" charz fig3
      "Static instruction footprint and 99%-dynamic footprint"
  | Fig4 -> fig "fig4" charz fig4
      "Average basic-block length and distance between taken branches"
  | Fig5 -> fig "fig5" [ rows fig5_rows ] fig5
      "Branch MPKI for eleven predictor configurations"
  | Fig6 -> fig "fig6" [ Rows (fig6_rows, subset W.Suites.fig6_subset) ] fig6
      "Branch MPKI breakdown by mispredicted outcome (gshare)"
  | Fig7 -> fig "fig7" [ rows fig7_rows ] fig7
      "BTB MPKI across entry counts and associativities"
  | Fig8 -> fig "fig8" [ rows fig8_rows ] fig8
      "I-cache MPKI across sizes and associativities (64B lines)"
  | Fig8p -> fig "fig8p" [ rows fig8p_rows; rows fig8ph_rows ] fig8p
      "I-cache MPKI under perceptron reuse/bypass replacement (64B lines)"
  | Fig9 ->
      fig "fig9"
        [ Rows (fig9_rows, subset W.Suites.fig9_subset); rows fig9u_rows ]
        fig9 "I-cache MPKI across line widths (16KB)"
  | Tab2 -> fig "tab2" [] tab2
      "Branch-predictor size parameters and hardware budgets"
  | Tab3 -> fig "tab3" [] tab3
      "Front-end structure shares of core area and power"
  | Fig10 -> fig "fig10" [ Cmp (cmp_standard, W.Suites.all) ] fig10
      "CMP execution time, power, energy and ED per suite"
  | Fig10p -> fig "fig10p" [ Cmp (cmp_learned, W.Suites.all) ] fig10p
      "CMP comparison with learned I-cache replacement in the tailored core"
  | Fig11 ->
      fig "fig11" [ Cmp (cmp_standard, subset W.Suites.fig11_subset) ] fig11
        "Per-benchmark normalized CMP execution time"

let to_string id = (figure id).name
let describe id = (figure id).describe

let of_string s =
  List.find_opt (fun id -> String.equal (to_string id) s) all

(* ------------------------------------------------------------------ *)
(* Task decomposition for the dispatch layer.

   A {!task} is the multi-process unit of work: one memoized artifact
   for one benchmark, i.e. one benchmark of one [need]. Running a task
   stores its artifact in the shared persistent {!Cache}; it returns
   nothing, because the coordinator never consumes task values over
   the wire — it re-renders from the cache, which is what makes an
   N-worker run byte-identical to [-j1] regardless of which worker
   computed what, in what order, or how many times. *)

type task = { t_kind : string; t_bench : string }

let task_id t = t.t_kind ^ "|" ^ t.t_bench

let need_kind = function
  | Charz _ -> "charz"
  | Cmp ((kind, _), _) -> kind
  | Rows (rows, _) -> "row." ^ rows.tag

let tasks_for id =
  List.concat_map
    (fun need ->
      let t_kind = need_kind need in
      let profiles =
        match need with Charz ps | Cmp (_, ps) | Rows (_, ps) -> ps
      in
      List.map (fun (p : W.Profile.t) -> { t_kind; t_bench = p.name }) profiles)
    (figure id).needs

let run_task ~scale { t_kind; t_bench } =
  match
    ( List.find_opt
        (fun need -> String.equal (need_kind need) t_kind)
        (List.concat_map (fun id -> (figure id).needs) all),
      List.find_opt
        (fun (p : W.Profile.t) -> String.equal p.name t_bench)
        W.Suites.all )
  with
  | Some need, Some p ->
      (match need with
      | Charz _ -> ignore (characterize scale p)
      | Cmp (family, _) -> ignore (evaluate_cmps family scale p)
      | Rows (rows, _) ->
          ignore
            (rows_cached ~jobs:(Engine.default_jobs ())
               ~where:("task/" ^ rows.tag) scale rows [ p ]));
      true
  | _ -> false

(* Parallel prefetch of the characterizations and CMP evaluations a
   figure reads, so the table code afterwards only takes memo hits
   and its row order never depends on worker scheduling. A benchmark
   whose prefetch died (e.g. on the [engine.task] fault site) is
   recomputed when the table code reads it; only a failure there is
   a real loss. Rows need no prefetch: [rows_cached] reads each row
   once and warms captures only for the misses. *)
let prefetch ~jobs scale needs =
  List.iter
    (function
      | Charz ps ->
          warm ~jobs characterizations
            (fun (p : W.Profile.t) -> (p.name, scale))
            (characterize scale) ps
      | Cmp (((kind, _) as family), ps) ->
          warm ~jobs cmp_evals
            (fun (p : W.Profile.t) -> (kind, p.name, scale))
            (evaluate_cmps family scale) ps
      | Rows _ -> ())
    needs

(* Appendix rendered after a degraded run: one row per lost
   measurement, so a "!" in a table above is traceable to the
   structured failure that caused it. *)
let degraded_table holes =
  let t =
    Table.create
      ~title:"Degraded run: failed measurements (marked ! above)"
      [ ("measurement", Table.Left); ("failure", Table.Left) ]
  in
  List.iter
    (fun (where, fl) -> Table.add_row t [ where; Failure.to_string fl ])
    holes;
  t

let run ?(scale = 1.0) ?jobs id =
  let jobs =
    match jobs with Some j -> j | None -> Engine.default_jobs ()
  in
  let f = figure id in
  clear_holes ();
  let tables =
    Repro_util.Telemetry.with_span ("experiment." ^ f.name) (fun () ->
        prefetch ~jobs scale f.needs;
        f.render ~jobs scale)
  in
  match holes () with
  | [] -> tables
  | hs -> tables @ [ degraded_table hs ]
