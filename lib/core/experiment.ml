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

let to_string = function
  | Fig1 -> "fig1"
  | Fig2 -> "fig2"
  | Tab1 -> "tab1"
  | Fig3 -> "fig3"
  | Fig4 -> "fig4"
  | Fig5 -> "fig5"
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Fig8 -> "fig8"
  | Fig8p -> "fig8p"
  | Fig9 -> "fig9"
  | Tab2 -> "tab2"
  | Tab3 -> "tab3"
  | Fig10 -> "fig10"
  | Fig10p -> "fig10p"
  | Fig11 -> "fig11"

let of_string s =
  List.find_opt (fun id -> String.equal (to_string id) s) all

let describe = function
  | Fig1 -> "Dynamic branch instruction breakdown per suite (% of instructions)"
  | Fig2 -> "Distribution of conditional-branch directions (bias deciles)"
  | Tab1 -> "Backward vs forward taken conditional branches"
  | Fig3 -> "Static instruction footprint and 99%-dynamic footprint"
  | Fig4 -> "Average basic-block length and distance between taken branches"
  | Fig5 -> "Branch MPKI for eleven predictor configurations"
  | Fig6 -> "Branch MPKI breakdown by mispredicted outcome (gshare)"
  | Fig7 -> "BTB MPKI across entry counts and associativities"
  | Fig8 -> "I-cache MPKI across sizes and associativities (64B lines)"
  | Fig8p ->
      "I-cache MPKI under perceptron reuse/bypass replacement (64B lines)"
  | Fig9 -> "I-cache MPKI across line widths (16KB)"
  | Tab2 -> "Branch-predictor size parameters and hardware budgets"
  | Tab3 -> "Front-end structure shares of core area and power"
  | Fig10 -> "CMP execution time, power, energy and ED per suite"
  | Fig10p -> "CMP comparison with learned I-cache replacement in the \
               tailored core"
  | Fig11 -> "Per-benchmark normalized CMP execution time"

(* ------------------------------------------------------------------ *)
(* Memoized measurements.

   Three layers: a process-local memo table (guarded by a mutex so
   Engine workers can share it), the persistent Cache underneath it,
   and the actual trace run. Concurrent workers may race to compute
   the same key; the computation is deterministic, so the duplicate
   work is wasted but the surviving entry is identical either way. *)

let memo_lock = Mutex.create ()
let locked f = Mutex.protect memo_lock f

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

(* Environment toggles are re-read on use (tests flip them with
   [putenv], and the Server daemon's reload path re-reads them) but
   validated with a warning only once per variable, through the
   shared {!Repro_util.Env} helper: a malformed value warns on stderr
   with the accepted forms and falls back to the default instead of
   being silently ignored. *)
let env_flag name ~default = Repro_util.Env.flag ~name ~default

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

let strict_enabled () =
  match !strict_override with
  | Some b -> b
  | None -> env_flag "REPRO_STRICT" ~default:false

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
      Engine.map_result ~jobs ~fail_fast:(strict_enabled ())
        (fun (p, (lo, hi)) -> run_range p lo hi)
        tasks
    in
    (* Reassemble: tasks were emitted benchmark-major with ranges in
       ascending order, so consecutive runs of [groups] parts belong
       to one benchmark. *)
    let rec take n l acc =
      if n = 0 then (List.rev acc, l)
      else
        match l with
        | x :: tl -> take (n - 1) tl (x :: acc)
        | [] -> invalid_arg "sweep_map: uneven parts"
    in
    let rec stitch profiles parts =
      match profiles with
      | [] -> []
      | (p : W.Profile.t) :: ptl ->
          let mine, rest = take groups parts [] in
          let row =
            List.fold_left
              (fun acc part ->
                match (acc, part) with
                | Ok done_, Ok arr -> Ok (arr :: done_)
                | (Error _ as e), _ -> e
                | Ok _, Error fl -> Error fl)
              (Ok []) mine
          in
          (match row with
          | Ok arrs -> Ok (Array.concat (List.rev arrs))
          | Error fl ->
              record_hole (where ^ "/" ^ p.name) fl;
              Error ())
          :: stitch ptl rest
    in
    stitch profiles parts
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
   true recompute, and the rows are small (a few hundred bytes) so
   re-reading them is free. Only surviving rows are stored — a
   benchmark that degraded to a hole recomputes on every visit. *)

(* Each figure's tag carries a digest of its configuration axis, so
   editing a figure's config list can never replay a stale row from
   an older build of the same cache version. *)
let row_tag base parts =
  base ^ ":"
  ^ String.sub (Digest.to_hex (Digest.string (String.concat "," parts))) 0 8

let row_key ~tag ~scale (p : W.Profile.t) =
  Cache.key ~profile:p ~scale ~kind:("row." ^ tag)

(* [rows_cached ~tag ~scale profiles compute] returns what [compute
   profiles] would, but serves benchmarks whose row is already in the
   persistent cache from it and only runs [compute] (the existing
   supervised bench_map/sweep_map machinery) over the misses,
   stitching results back in input order. Hit/miss accounting mirrors
   {!Cache.memoize} so the engine-stats footer and telemetry stay
   truthful. *)
let rows_cached ~tag ~scale profiles compute =
  if not (Cache.enabled ()) then compute profiles
  else begin
    let probed =
      List.map
        (fun (p : W.Profile.t) ->
          let k = row_key ~tag ~scale p in
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

let fig1 scale =
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
      let scopes =
        if Suite.is_hpc suite then
          [ ("total", total); ("serial", serial); ("parallel", parallel) ]
        else [ ("total", total) ]
      in
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
        scopes;
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

let fig2 scale =
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
      let scopes =
        if Suite.is_hpc suite then
          [ ("total", total); ("serial", serial); ("parallel", parallel) ]
        else [ ("total", total) ]
      in
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
        scopes;
      Table.add_separator t)
    Suite.all;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table I *)

let tab1 scale =
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

let fig3 scale =
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

let fig4 scale =
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

let fig5_tag = row_tag "fig5" F.Zoo.all_names

let fig5_rows ~jobs ~where scale profiles =
  let names = Array.of_list F.Zoo.all_names in
  sweep_map ~jobs ~where profiles (Array.length names) (fun p lo hi ->
      let specs =
        Array.init (hi - lo) (fun i -> A.Bp_sweep.of_name names.(lo + i))
      in
      Array.map
        (fun r -> A.Bp_sweep.mpki r total)
        (A.Bp_sweep.run (source scale p) specs))

let fig5_suite_mpki ~jobs scale suite =
  let profiles = W.Suites.by_suite suite in
  let where = "fig5/" ^ Suite.to_string suite in
  rows_cached ~tag:fig5_tag ~scale profiles (fig5_rows ~jobs ~where scale)

let fig5 ~jobs scale =
  let t =
    Table.create ~title:"Fig 5: branch MPKI per predictor configuration"
      ([ ("suite", Table.Left) ]
      @ List.map (fun n -> (n, Table.Right)) F.Zoo.all_names)
  in
  List.iter
    (fun suite ->
      let per_bench = fig5_suite_mpki ~jobs scale suite in
      Table.add_row t
        (Suite.to_string suite
        :: mean_cells per_bench (List.length F.Zoo.all_names));
      let paper =
        List.assoc_opt suite
          (List.map (fun (s, l) -> (s, l)) Paper_data.fig5_mpki)
      in
      match paper with
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
let fig6_tag = row_tag "fig6" fig6_configs

let fig6_rows ~jobs scale profiles =
  let configs = fig6_configs in
  bench_map ~jobs ~where:"fig6"
    (fun (p : W.Profile.t) -> p.name)
    (fun (p : W.Profile.t) ->
      let specs = Array.of_list (List.map A.Bp_sweep.of_name configs) in
      A.Bp_sweep.run (source scale p) specs
      |> Array.to_list
      |> List.concat_map (fun r ->
             List.map
               (fun cause -> f2 (A.Bp_sweep.mpki_by_cause r total cause))
               A.Bp_sweep.causes))
    profiles

let fig6 ~jobs scale =
  let configs = fig6_configs in
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
          configs)
  in
  let ncells = List.length configs * List.length A.Bp_sweep.causes in
  let rows =
    rows_cached ~tag:fig6_tag ~scale
      (List.map W.Suites.find W.Suites.fig6_subset)
      (fig6_rows ~jobs scale)
  in
  List.iter2
    (fun name row ->
      match row with
      | Ok cells -> Table.add_row t (name :: cells)
      | Error () -> Table.add_row t (name :: List.init ncells (fun _ -> hole_cell)))
    W.Suites.fig6_subset rows;
  [ t ]

(* ------------------------------------------------------------------ *)
(* Fig 7 *)

let btb_configs =
  List.concat_map
    (fun entries -> List.map (fun assoc -> (entries, assoc)) [ 2; 4; 8 ])
    [ 256; 512; 1024 ]

let fig7_tag =
  row_tag "fig7"
    (List.map (fun (e, a) -> Printf.sprintf "%d/%d" e a) btb_configs)

let fig7_rows ~jobs ~where scale profiles =
  let configs = Array.of_list btb_configs in
  sweep_map ~jobs ~where profiles (Array.length configs) (fun p lo hi ->
      Array.map
        (fun r -> A.Btb_sweep.mpki r total)
        (A.Btb_sweep.run (source scale p) (Array.sub configs lo (hi - lo))))

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
      let profiles = W.Suites.by_suite suite in
      let where = "fig7/" ^ Suite.to_string suite in
      let per_bench =
        rows_cached ~tag:fig7_tag ~scale profiles
          (fig7_rows ~jobs ~where scale)
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

let icache_rows ~jobs ~where ~configs scale profiles =
  let carr = Array.of_list configs in
  sweep_map ~jobs ~where profiles (Array.length carr) (fun p lo hi ->
      Array.map
        (fun r -> A.Icache_sweep.mpki r total)
        (A.Icache_sweep.run (source scale p) (Array.sub carr lo (hi - lo))))

let icache_table ~jobs ~tag ~where:where_root ~title ~configs ~benchmarks scale
    per_suite =
  let t =
    Table.create ~title
      ([ ((if per_suite then "suite" else "benchmark"), Table.Left) ]
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
  let mpki_rows ~where profiles =
    rows_cached ~tag ~scale profiles (icache_rows ~jobs ~where ~configs scale)
  in
  if per_suite then
    List.iter
      (fun suite ->
        let where = where_root ^ "/" ^ Suite.to_string suite in
        let per_bench = mpki_rows ~where (W.Suites.by_suite suite) in
        Table.add_row t
          (Suite.to_string suite :: mean_cells per_bench (List.length configs)))
      Suite.all
  else begin
    let rows = mpki_rows ~where:where_root (List.map W.Suites.find benchmarks) in
    List.iter2
      (fun name row ->
        match row with
        | Ok arr ->
            Table.add_row t (name :: Array.to_list (Array.map f2 arr))
        | Error () ->
            Table.add_row t
              (name :: List.map (fun _ -> hole_cell) configs))
      benchmarks rows
  end;
  t

let fig8_points =
  List.concat_map
    (fun size -> List.map (fun a -> (size, 64, a)) [ 2; 4; 8 ])
    [ 8192; 16384; 32768 ]

let fig8_cfgs = List.map A.Icache_sweep.cfg fig8_points
let fig8_tag = row_tag "fig8" (List.map icache_cfg_sig fig8_cfgs)

let fig8p_cfgs =
  List.map (A.Icache_sweep.cfg ~policy:F.Replacement.Preuse) fig8_points

let fig8p_tag = row_tag "fig8p" (List.map icache_cfg_sig fig8p_cfgs)

let fig8ph_cfgs =
  [ A.Icache_sweep.cfg (32768, 64, 4);
    A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (16384, 64, 4) ]

let fig8ph_tag = row_tag "fig8ph" (List.map icache_cfg_sig fig8ph_cfgs)

let fig9_cfgs =
  List.map A.Icache_sweep.cfg
    (List.concat_map
       (fun line -> List.map (fun a -> (16384, line, a)) [ 2; 4; 8 ])
       [ 32; 64; 128 ])

let fig9_tag = row_tag "fig9" (List.map icache_cfg_sig fig9_cfgs)

(* Fig 9's companion metric: 128B-line usefulness on one fixed
   geometry. *)
let fig9u_tag = row_tag "fig9u" [ "16384/128/8" ]

let fig9u_rows ~jobs ~where scale profiles =
  bench_map ~jobs ~where
    (fun (p : W.Profile.t) -> p.name)
    (fun (p : W.Profile.t) ->
      let r =
        A.Icache_sweep.run (source scale p)
          [| A.Icache_sweep.cfg (16384, 128, 8) |]
      in
      A.Icache_sweep.usefulness r.(0))
    profiles

let fig8 ~jobs scale =
  [ icache_table ~jobs ~tag:fig8_tag ~where:"fig8"
      ~title:"Fig 8: I-cache MPKI (64B lines)" ~configs:fig8_cfgs
      ~benchmarks:[] scale true ]

(* Fig 8p: the fig8 size/associativity sweep re-run under the
   perceptron reuse/bypass policy, plus a headline mixed-policy sweep
   answering the ROADMAP question directly — does a 16KB learned
   I-cache beat the 32KB LRU baseline? *)
let fig8p ~jobs scale =
  [ icache_table ~jobs ~tag:fig8p_tag ~where:"fig8p"
      ~title:"Fig 8p: I-cache MPKI, perceptron reuse/bypass (64B lines)"
      ~configs:fig8p_cfgs ~benchmarks:[] scale true;
    icache_table ~jobs ~tag:fig8ph_tag ~where:"fig8p-headline"
      ~title:"Fig 8p (headline): 16KB preuse vs 32KB LRU (64B, 4-way)"
      ~configs:fig8ph_cfgs ~benchmarks:[] scale true ]

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
  let rows ~tag ~configs =
    let per_bench =
      rows_cached ~tag ~scale W.Suites.all
        (icache_rows ~jobs ~where:"learned" ~configs scale)
    in
    let oks = List.filter_map Result.to_option per_bench in
    if List.length oks = List.length per_bench then Some oks else None
  in
  match
    ( rows ~tag:fig8ph_tag ~configs:fig8ph_cfgs,
      rows ~tag:fig8p_tag ~configs:fig8p_cfgs )
  with
  | Some headline, Some sweep ->
      let n = float_of_int (List.length W.Suites.all) in
      let mean i rows =
        List.fold_left (fun acc r -> acc +. r.(i)) 0.0 rows /. n
      in
      let lru_mpki = mean 0 headline in
      let preuse_4way size =
        mean
          (Option.get (List.find_index (( = ) (size, 64, 4)) fig8_points))
          sweep
      in
      Some
        { lru_mpki;
          preuse_mpki = mean 1 headline;
          crossover_size =
            List.find_opt
              (fun s -> preuse_4way s <= lru_mpki)
              [ 8192; 16384; 32768 ] }
  | _ -> None

let fig9 ~jobs scale =
  let mpki_tbl =
    icache_table ~jobs ~tag:fig9_tag ~where:"fig9"
      ~title:"Fig 9: I-cache MPKI across line widths (16KB)"
      ~configs:fig9_cfgs ~benchmarks:W.Suites.fig9_subset scale false
  in
  (* Line usefulness, paper Section IV-C *)
  let useful =
    Table.create ~title:"Fig 9 (companion): 128B-line usefulness"
      [ ("suite", Table.Left); ("usefulness", Table.Right);
        ("paper", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let where = "fig9-usefulness/" ^ Suite.to_string suite in
      let per_bench =
        rows_cached ~tag:fig9u_tag ~scale (W.Suites.by_suite suite)
          (fig9u_rows ~jobs ~where scale)
      in
      let measured =
        let oks = List.filter_map Result.to_option per_bench in
        if List.length oks <> List.length per_bench then hole_cell
        else
          Table.fmt_pct
            (Repro_util.Stats.mean
               (List.filter (fun v -> not (Float.is_nan v)) oks))
      in
      Table.add_row useful
        [ Suite.to_string suite; measured;
          (if Suite.is_hpc suite then
             Table.fmt_pct Paper_data.fig9_line_usefulness_hpc
           else Table.fmt_pct Paper_data.fig9_line_usefulness_int) ])
    Suite.all;
  [ mpki_tbl; useful ]

(* ------------------------------------------------------------------ *)
(* Table II *)

let tab2 () =
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
      F.Predictor.make ~name:"lbp" ~predict:(fun _ -> false)
        ~update:(fun _ _ -> ())
        ~storage_bits:(F.Loop_predictor.storage_bits lbp))
    "~0.5KB";
  [ t ]

(* ------------------------------------------------------------------ *)
(* Table III *)

let tab3 () =
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
  let b = U.Mcpat.budget U.Frontend_config.baseline in
  let tl = U.Mcpat.budget U.Frontend_config.tailored in
  row "baseline core"
    (U.Mcpat.core_area_mm2 U.Frontend_config.baseline)
    tab3_baseline_core.area_mm2
    (U.Mcpat.core_power_w U.Frontend_config.baseline)
    tab3_baseline_core.power_w;
  row "  I-cache 32KB/64B" b.icache_mm2 tab3_baseline_icache.area_mm2
    b.icache_w tab3_baseline_icache.power_w;
  row "  BP 16KB" b.bp_mm2 tab3_baseline_bp.area_mm2 b.bp_w
    tab3_baseline_bp.power_w;
  row "  BTB 2K" b.btb_mm2 tab3_baseline_btb.area_mm2 b.btb_w
    tab3_baseline_btb.power_w;
  Table.add_separator t;
  row "tailored core"
    (U.Mcpat.core_area_mm2 U.Frontend_config.tailored)
    tab3_tailored_core.area_mm2
    (U.Mcpat.core_power_w U.Frontend_config.tailored)
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
  Table.add_row headline
    [ "core area saving";
      Table.fmt_pct (U.Mcpat.area_saving_vs_baseline U.Frontend_config.tailored);
      Table.fmt_pct headline_area_saving ];
  Table.add_row headline
    [ "core power saving";
      Table.fmt_pct
        (U.Mcpat.power_saving_vs_baseline U.Frontend_config.tailored);
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

let fig10 scale = cmp_suite_tables ~fig:"10" cmp_standard scale
let fig10p scale = cmp_suite_tables ~fig:"10p" cmp_learned scale

let fig11 scale =
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
(* Task decomposition for the dispatch layer.

   A {!task} is the multi-process unit of work: one memoized artifact
   for one benchmark — a characterization ("charz"), a CMP evaluation
   family ("cmp"/"cmpl"), or one figure row ("row.<tag>"). Running a
   task stores its artifact in the shared persistent {!Cache}; it
   returns nothing, because the coordinator never consumes task
   values over the wire — it re-renders from the cache, which is what
   makes an N-worker run byte-identical to [-j1] regardless of which
   worker computed what, in what order, or how many times. *)

type task = { t_kind : string; t_bench : string }

let task_id t = t.t_kind ^ "|" ^ t.t_bench

let row_runners : (string * (jobs:int -> float -> W.Profile.t list -> unit)) list
    =
  let runner tag rows ~jobs scale ps =
    ignore (rows_cached ~tag ~scale ps (rows ~jobs ~where:("task/" ^ tag) scale))
  in
  [ (fig5_tag, runner fig5_tag fig5_rows);
    (fig6_tag,
     fun ~jobs scale ps ->
       ignore (rows_cached ~tag:fig6_tag ~scale ps (fig6_rows ~jobs scale)));
    (fig7_tag, runner fig7_tag fig7_rows);
    (fig9u_tag, runner fig9u_tag fig9u_rows) ]
  @ List.map
      (fun (tag, configs) ->
        ( tag,
          fun ~jobs scale ps ->
            ignore
              (rows_cached ~tag ~scale ps
                 (icache_rows ~jobs ~where:("task/" ^ tag) ~configs scale)) ))
      [ (fig8_tag, fig8_cfgs); (fig8p_tag, fig8p_cfgs);
        (fig8ph_tag, fig8ph_cfgs); (fig9_tag, fig9_cfgs) ]

let tasks_for id =
  let t kind (p : W.Profile.t) = { t_kind = kind; t_bench = p.name } in
  let rows tag ps = List.map (t ("row." ^ tag)) ps in
  match id with
  | Fig1 | Fig2 | Tab1 | Fig3 | Fig4 -> List.map (t "charz") W.Suites.all
  | Fig10 -> List.map (t "cmp") W.Suites.all
  | Fig10p -> List.map (t "cmpl") W.Suites.all
  | Fig11 -> List.map (t "cmp") (List.map W.Suites.find W.Suites.fig11_subset)
  | Fig5 -> rows fig5_tag W.Suites.all
  | Fig6 -> rows fig6_tag (List.map W.Suites.find W.Suites.fig6_subset)
  | Fig7 -> rows fig7_tag W.Suites.all
  | Fig8 -> rows fig8_tag W.Suites.all
  | Fig8p -> rows fig8p_tag W.Suites.all @ rows fig8ph_tag W.Suites.all
  | Fig9 ->
      rows fig9_tag (List.map W.Suites.find W.Suites.fig9_subset)
      @ rows fig9u_tag W.Suites.all
  | Tab2 | Tab3 -> []

let run_task ~scale { t_kind; t_bench } =
  match
    List.find_opt
      (fun (p : W.Profile.t) -> String.equal p.name t_bench)
      W.Suites.all
  with
  | None -> false
  | Some p -> (
      let jobs = Engine.default_jobs () in
      match t_kind with
      | "charz" ->
          ignore (characterize scale p);
          true
      | "cmp" ->
          ignore (evaluate_cmps cmp_standard scale p);
          true
      | "cmpl" ->
          ignore (evaluate_cmps cmp_learned scale p);
          true
      | k when String.length k > 4 && String.equal (String.sub k 0 4) "row." -> (
          let tag = String.sub k 4 (String.length k - 4) in
          match List.assoc_opt tag row_runners with
          | Some runner ->
              runner ~jobs scale [ p ];
              true
          | None -> false)
      | _ -> false)

(* Parallel prefetch of the memoized quantities an experiment reads:
   the table-building code afterwards only takes memo hits, so its
   (deterministic) row order never depends on worker scheduling.

   Prefetch is purely a warm-up, so failures are swallowed rather
   than recorded as holes: a benchmark whose prefetch died (e.g. its
   sweep's engine task kept hitting the [engine.task] fault site) is
   recomputed on the synchronous path when the table code reads it,
   and only a failure there is a real loss.

   Every measured figure reads its benchmarks through [source], so
   the charz and CMP prefetches capture exactly the traces [traces]
   warms for the sweeps, and a later figure replays them.

   For the trace-simulating figures the render reads nothing but the
   persisted row artifacts, so a benchmark whose rows for this
   experiment are all already in the {!Cache} — a warm rerun, or a
   sweep just computed by dispatch workers — needs no packed capture
   at all; warming it would cost more than the render itself. *)
let prefetch ~jobs scale id =
  let sup f profiles = ignore (Engine.map_result ~jobs f profiles) in
  let charz profiles = sup (fun p -> ignore (characterize scale p)) profiles in
  let cmps family profiles =
    sup (fun p -> ignore (evaluate_cmps family scale p)) profiles
  in
  let traces profiles =
    let uncached =
      if not (Cache.enabled ()) then profiles
      else begin
        let missing : (string, unit) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun { t_kind; t_bench } ->
            if String.length t_kind > 4 && String.sub t_kind 0 4 = "row."
            then
              let tag = String.sub t_kind 4 (String.length t_kind - 4) in
              match
                List.find_opt
                  (fun (p : W.Profile.t) -> String.equal p.name t_bench)
                  profiles
              with
              | Some p -> (
                  match Cache.find (row_key ~tag ~scale p) with
                  | Some _ -> ()
                  | None -> Hashtbl.replace missing p.name ())
              | None -> ())
          (tasks_for id);
        List.filter
          (fun (p : W.Profile.t) -> Hashtbl.mem missing p.name)
          profiles
      end
    in
    sup (fun p -> ignore (packed_trace scale p)) uncached
  in
  match id with
  | Fig1 | Fig2 | Tab1 | Fig3 | Fig4 -> charz W.Suites.all
  | Fig10 -> cmps cmp_standard W.Suites.all
  | Fig10p -> cmps cmp_learned W.Suites.all
  | Fig11 -> cmps cmp_standard (List.map W.Suites.find W.Suites.fig11_subset)
  | Fig5 | Fig7 | Fig8 | Fig8p | Fig9 -> traces W.Suites.all
  | Fig6 -> traces (List.map W.Suites.find W.Suites.fig6_subset)
  | Tab2 | Tab3 -> ()

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
  clear_holes ();
  let tables =
    Repro_util.Telemetry.with_span ("experiment." ^ to_string id) (fun () ->
    prefetch ~jobs scale id;
    match id with
    | Fig1 -> fig1 scale
    | Fig2 -> fig2 scale
    | Tab1 -> tab1 scale
    | Fig3 -> fig3 scale
    | Fig4 -> fig4 scale
    | Fig5 -> fig5 ~jobs scale
    | Fig6 -> fig6 ~jobs scale
    | Fig7 -> fig7 ~jobs scale
    | Fig8 -> fig8 ~jobs scale
    | Fig8p -> fig8p ~jobs scale
    | Fig9 -> fig9 ~jobs scale
    | Tab2 -> tab2 ()
    | Tab3 -> tab3 ()
    | Fig10 -> fig10 scale
    | Fig10p -> fig10p scale
    | Fig11 -> fig11 scale)
  in
  match holes () with
  | [] -> tables
  | hs -> tables @ [ degraded_table hs ]
