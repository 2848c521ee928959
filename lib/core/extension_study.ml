module A = Repro_analysis
module W = Repro_workload
module F = Repro_frontend
module Table = Repro_util.Table

let total = A.Branch_mix.Total

(* One capture per benchmark; every model of a table replays it. *)
let capture ?insts name =
  A.Tool.Source.of_packed
    (W.Executor.packed (W.Executor.create ?insts (W.Suites.find name)))

let table ~title ~benchmarks columns row =
  let t =
    Table.create ~title
      (("benchmark", Table.Left)
      :: List.map (fun c -> (c, Table.Right)) columns)
  in
  List.iter (fun name -> Table.add_row t (name :: row name)) benchmarks;
  t

let predictor_table ?insts ~benchmarks () =
  let opaque name =
    A.Bp_sweep.of_spec ~name
      { F.Zoo.loop = false;
        core = F.Zoo.Opaque (fun () -> F.Zoo.by_name_extended name) }
  in
  let specs =
    Array.of_list
      (List.map opaque
         [ "gshare-small"; "tage-big"; "perceptron-128"; "two-level-10.10" ]
      @ List.map A.Bp_sweep.of_static
          A.Bp_sweep.[ Always_taken; Always_not_taken; Btfn ])
  in
  table
    ~title:
      "Extension: branch MPKI incl. perceptron, two-level and static schemes"
    ~benchmarks
    (Array.to_list (Array.map A.Bp_sweep.spec_name specs))
    (fun name ->
      A.Bp_sweep.run (capture ?insts name) specs
      |> Array.to_list
      |> List.map (fun r -> Table.fmt_float (A.Bp_sweep.mpki r total)))

let prefetch_table ?insts ~benchmarks () =
  let configs =
    [ ("32K/64B (baseline)", (32768, 64, 4), false);
      ("16K/128B (tailored)", (16384, 128, 8), false);
      ("16K/64B", (16384, 64, 8), false);
      ("16K/64B + next-line", (16384, 64, 8), true) ]
  in
  let cell r =
    let cache = A.Icache_sweep.cache r in
    let mpki = Table.fmt_float (A.Icache_sweep.mpki r total) in
    let issued = F.Icache.prefetches cache in
    if issued = 0 then mpki
    else
      Printf.sprintf "%s (%.0f%%)" mpki
        (100.0
        *. float_of_int (F.Icache.useful_prefetches cache)
        /. float_of_int issued)
  in
  table
    ~title:
      "Extension: next-line prefetch vs wide lines (I-cache MPKI; prefetch \
       accuracy in parens)"
    ~benchmarks
    (List.map (fun (n, _, _) -> n) configs)
    (fun name ->
      let src = capture ?insts name in
      (* Prefetch is a property of the whole sweep: one run without it
         and one with it, each result handed back in table order. *)
      let sweep pf =
        List.filter_map
          (fun (_, geom, p) ->
            if p = pf then Some (A.Icache_sweep.cfg geom) else None)
          configs
        |> Array.of_list
        |> A.Icache_sweep.run ~next_line_prefetch:pf src
        |> Array.to_seq |> Queue.of_seq
      in
      let plain = sweep false and prefetched = sweep true in
      List.map
        (fun (_, _, pf) -> cell (Queue.pop (if pf then prefetched else plain)))
        configs)

let predictability_table ?insts () =
  let t =
    Table.create
      ~title:
        "Extension: trace learnability and instruction working sets per suite"
      [ ("suite", Table.Left); ("novelty rate", Table.Right);
        ("pairs/site", Table.Right); ("ws knee (64B,4w)", Table.Right) ]
  in
  List.iter
    (fun suite ->
      let novelty = ref [] and pps = ref [] and knees = ref [] in
      List.iter
        (fun (p : W.Profile.t) ->
          let src = capture ?insts p.name in
          let pred = A.Predictability.create () in
          A.Tool.run_all_source src [ A.Predictability.observer pred ];
          let n = A.Predictability.novelty_rate pred in
          if not (Float.is_nan n) then novelty := n :: !novelty;
          let pp = A.Predictability.pairs_per_site pred in
          if not (Float.is_nan pp) then pps := pp :: !pps;
          match A.Working_set.knee (A.Working_set.curve src) with
          | Some k -> knees := float_of_int k :: !knees
          | None -> ())
        (W.Suites.by_suite suite);
      Table.add_row t
        [ W.Suite.to_string suite;
          Table.fmt_pct (Repro_util.Stats.mean !novelty);
          Table.fmt_float (Repro_util.Stats.mean !pps);
          (match !knees with
          | [] -> "-"
          | ks ->
              Repro_util.Units.pp_bytes
                (int_of_float (Repro_util.Stats.mean ks))) ])
    W.Suite.all;
  t
