type t = {
  name : string;
  suite : Repro_workload.Suite.t;
  mix : Branch_mix.t;
  bias : Branch_bias.t;
  footprint : Footprint.summary;
  bblocks : Bblock_stats.t;
}

let of_source ~name ~suite src =
  let mix = Branch_mix.create () in
  let bias = Branch_bias.create () in
  let footprint = Footprint.create () in
  let bblocks = Bblock_stats.create () in
  Tool.run_all_source src
    [ Branch_mix.observer mix;
      Branch_bias.observer bias;
      Footprint.observer footprint;
      Bblock_stats.observer bblocks ];
  { name; suite; mix; bias; footprint = Footprint.summarize footprint;
    bblocks }

let of_trace ~name ~suite trace =
  of_source ~name ~suite (Tool.Source.of_trace trace)

let of_profile ?insts profile =
  let executor = Repro_workload.Executor.create ?insts profile in
  of_trace ~name:profile.Repro_workload.Profile.name
    ~suite:profile.Repro_workload.Profile.suite
    (Repro_workload.Executor.trace executor)

let suite_mean results metric =
  let values =
    List.filter_map
      (fun r ->
        let v = metric r in
        if Float.is_nan v then None else Some v)
      results
  in
  Repro_util.Stats.mean values
