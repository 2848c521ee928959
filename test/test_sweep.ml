(* Differential tests for the fused multi-configuration sweep kernels.

   The contract under test: Repro_analysis.{Bp_sweep, Btb_sweep,
   Icache_sweep} over N configurations and one source are
   bit-identical — every counter and every derived float — to N
   independent per-configuration oracles (the test-local Bp_sim,
   Btb_sim and Icache_sim, fed one instruction at a time) over the
   same source, for both source forms (streaming trace and packed
   capture), and invariant under splitting the configuration
   axis into sub-ranges (the property Experiment's sweep_map relies
   on when it shards configurations across Engine domains). *)

module I = Repro_isa.Inst
module S = Repro_isa.Section
module Trace = Repro_isa.Trace
module P = Repro_isa.Packed_trace
module F = Repro_frontend
module A = Repro_analysis

let scopes =
  A.Branch_mix.[ Total; Only S.Serial; Only S.Parallel ]

(* Exact equality that also accepts nan = nan: the sweeps must
   reproduce the unfused floats bit for bit, empty scopes included. *)
let feq a b = Float.compare a b = 0

(* ------------------------------------------------------------------ *)
(* Random instruction streams, in the style of test_packed. *)

let kinds =
  [| I.Plain; I.Cond_branch; I.Uncond_direct; I.Indirect_branch; I.Call;
     I.Indirect_call; I.Return; I.Syscall |]

let inst_gen =
  QCheck.Gen.(
    let* k = int_bound (Array.length kinds - 1) in
    let kind = kinds.(k) in
    let* addr = int_bound 0xFFFFF in
    let* size = int_range 1 15 in
    let* taken = if kind = I.Plain then return false else bool in
    let* target = if taken then int_bound 0xFFFFF else return 0 in
    let* parallel = bool in
    let* warmup = frequencyl [ (3, false); (1, true) ] in
    return
      (I.make ~kind ~taken ~target
         ~section:(if parallel then S.Parallel else S.Serial)
         ~warmup ~addr ~size ()))

(* Streams long enough to fill tables and evict cache lines. *)
let stream_gen = QCheck.Gen.(list_size (int_range 0 600) inst_gen)

let stream_arb =
  QCheck.make
    QCheck.Gen.(pair stream_gen bool)
    ~print:(fun (l, packed) ->
      Printf.sprintf "<%d insts, %s>" (List.length l)
        (if packed then "packed" else "stream"))

let source_of (insts, packed) =
  let tr = Trace.of_list insts in
  if packed then A.Tool.Source.of_packed (P.of_trace tr)
  else A.Tool.Source.of_trace tr

(* ------------------------------------------------------------------ *)
(* Branch predictors: all nine Zoo configurations plus the statics. *)

let bp_specs () =
  Array.of_list
    (List.map A.Bp_sweep.of_name F.Zoo.all_names
    @ List.map A.Bp_sweep.of_static
        A.Bp_sweep.[ Always_taken; Always_not_taken; Btfn ])

let bp_sims () =
  List.map (fun n -> Bp_sim.create (F.Zoo.by_name n)) F.Zoo.all_names
  @ List.map Bp_sim.create_static
      A.Bp_sweep.[ Always_taken; Always_not_taken; Btfn ]

let bp_agrees (fused : A.Bp_sweep.t) (sim : Bp_sim.t) =
  String.equal (A.Bp_sweep.predictor_name fused) (Bp_sim.predictor_name sim)
  && List.for_all
       (fun scope ->
         A.Bp_sweep.insts fused scope = Bp_sim.insts sim scope
         && A.Bp_sweep.conditional_branches fused scope
            = Bp_sim.conditional_branches sim scope
         && A.Bp_sweep.mispredictions fused scope
            = Bp_sim.mispredictions sim scope
         && feq (A.Bp_sweep.mpki fused scope) (Bp_sim.mpki sim scope)
         && feq
              (A.Bp_sweep.misprediction_rate fused scope)
              (Bp_sim.misprediction_rate sim scope)
         && List.for_all
              (fun c ->
                feq
                  (A.Bp_sweep.mpki_by_cause fused scope c)
                  (Bp_sim.mpki_by_cause sim scope c))
              A.Bp_sweep.causes)
       scopes

let prop_bp_fused =
  QCheck.Test.make ~name:"Bp_sweep == per-config Bp_sim" ~count:60 stream_arb
    (fun input ->
      let fused = A.Bp_sweep.run (source_of input) (bp_specs ()) in
      let sims = bp_sims () in
      A.Tool.run_all_source (source_of input) (List.map Bp_sim.observer sims);
      List.for_all2 bp_agrees (Array.to_list fused) sims)

(* ------------------------------------------------------------------ *)
(* BTB: mixed geometries, including configurations sharing a set
   count (identical (set, tag) decomposition) and direct-mapped vs
   highly associative extremes. *)

let btb_configs = [| (16, 1); (16, 2); (32, 2); (64, 2); (64, 8); (256, 4) |]

let btb_agrees (fused : A.Btb_sweep.t) (sim : Btb_sim.t) =
  List.for_all
    (fun scope ->
      A.Btb_sweep.insts fused scope = Btb_sim.insts sim scope
      && A.Btb_sweep.taken_branches fused scope
         = Btb_sim.taken_branches sim scope
      && A.Btb_sweep.misses fused scope = Btb_sim.misses sim scope
      && feq (A.Btb_sweep.mpki fused scope) (Btb_sim.mpki sim scope)
      && feq (A.Btb_sweep.miss_rate fused scope) (Btb_sim.miss_rate sim scope))
    scopes

let prop_btb_fused =
  QCheck.Test.make ~name:"Btb_sweep == per-config Btb_sim" ~count:100
    stream_arb (fun input ->
      let fused = A.Btb_sweep.run (source_of input) btb_configs in
      let sims =
        Array.to_list
          (Array.map (fun (entries, assoc) -> Btb_sim.create ~entries ~assoc)
             btb_configs)
      in
      A.Tool.run_all_source (source_of input) (List.map Btb_sim.observer sims);
      List.for_all2 btb_agrees (Array.to_list fused) sims)

(* ------------------------------------------------------------------ *)
(* I-cache: configurations sharing a line size (one group, shared
   decision) and differing ones (independent groups), small enough
   that the random streams cause evictions. *)

let icache_geometries =
  [| (1024, 32, 1); (1024, 32, 2); (2048, 32, 4); (1024, 64, 2);
     (4096, 64, 4); (2048, 128, 2) |]

let icache_configs = Array.map A.Icache_sweep.cfg icache_geometries

(* The same geometries under perceptron reuse/bypass replacement, and
   a mixed sweep interleaving both policies — including the same
   geometry under each policy inside one line-size group, so a shared
   group decision feeds caches whose replacement state disagrees. *)
let icache_preuse_configs =
  Array.map
    (A.Icache_sweep.cfg ~policy:F.Replacement.Preuse)
    icache_geometries

let icache_mixed_configs =
  [| A.Icache_sweep.cfg (1024, 32, 2);
     A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (1024, 32, 2);
     A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (2048, 32, 4);
     A.Icache_sweep.cfg (4096, 64, 4);
     A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (1024, 64, 2);
     A.Icache_sweep.cfg ~policy:F.Replacement.Preuse (2048, 128, 2) |]

let icache_agrees (fused : A.Icache_sweep.t) (sim : Icache_sim.t) =
  List.for_all
    (fun scope ->
      A.Icache_sweep.insts fused scope = Icache_sim.insts sim scope
      && A.Icache_sweep.misses fused scope = Icache_sim.misses sim scope
      && feq (A.Icache_sweep.mpki fused scope) (Icache_sim.mpki sim scope))
    scopes
  && A.Icache_sweep.accesses fused = Icache_sim.accesses sim
  && F.Icache.misses (A.Icache_sweep.cache fused)
     = F.Icache.misses (Icache_sim.cache sim)
  && F.Icache.prefetches (A.Icache_sweep.cache fused)
     = F.Icache.prefetches (Icache_sim.cache sim)
  && F.Icache.useful_prefetches (A.Icache_sweep.cache fused)
     = F.Icache.useful_prefetches (Icache_sim.cache sim)
  && feq (A.Icache_sweep.usefulness fused) (Icache_sim.usefulness sim)

let icache_prop ~configs ~next_line_prefetch input =
  let fused = A.Icache_sweep.run ~next_line_prefetch (source_of input) configs in
  let sims =
    Array.to_list
      (Array.map
         (fun (c : A.Icache_sweep.config) ->
           Icache_sim.create ~next_line_prefetch ~policy:c.policy
             ~size_bytes:c.size_bytes ~line_bytes:c.line_bytes ~assoc:c.assoc
             ())
         configs)
  in
  A.Tool.run_all_source (source_of input) (List.map Icache_sim.observer sims);
  List.for_all2 icache_agrees (Array.to_list fused) sims

let prop_icache_fused =
  QCheck.Test.make ~name:"Icache_sweep == per-config Icache_sim" ~count:80
    stream_arb
    (icache_prop ~configs:icache_configs ~next_line_prefetch:false)

let prop_icache_fused_prefetch =
  QCheck.Test.make
    ~name:"Icache_sweep == per-config Icache_sim (next-line prefetch)"
    ~count:80 stream_arb
    (icache_prop ~configs:icache_configs ~next_line_prefetch:true)

let prop_icache_fused_preuse =
  QCheck.Test.make ~name:"Icache_sweep == per-config Icache_sim (preuse)"
    ~count:80 stream_arb
    (icache_prop ~configs:icache_preuse_configs ~next_line_prefetch:false)

let prop_icache_fused_preuse_prefetch =
  QCheck.Test.make
    ~name:"Icache_sweep == per-config Icache_sim (preuse, next-line prefetch)"
    ~count:80 stream_arb
    (icache_prop ~configs:icache_preuse_configs ~next_line_prefetch:true)

let prop_icache_fused_mixed =
  QCheck.Test.make
    ~name:"Icache_sweep == per-config Icache_sim (mixed policies)" ~count:80
    stream_arb
    (icache_prop ~configs:icache_mixed_configs ~next_line_prefetch:false)

let prop_icache_fused_mixed_prefetch =
  QCheck.Test.make
    ~name:
      "Icache_sweep == per-config Icache_sim (mixed policies, next-line \
       prefetch)"
    ~count:80 stream_arb
    (icache_prop ~configs:icache_mixed_configs ~next_line_prefetch:true)

(* ------------------------------------------------------------------ *)
(* Config-axis splitting: a sweep over any sub-range must equal the
   corresponding slice of the whole sweep — what sweep_map's
   stitching assumes when sharding configurations across domains. *)

let split_arb =
  QCheck.make
    QCheck.Gen.(triple stream_gen bool (int_range 1 5))
    ~print:(fun (l, packed, cut) ->
      Printf.sprintf "<%d insts, %s, cut=%d>" (List.length l)
        (if packed then "packed" else "stream")
        cut)

let prop_split_ranges =
  QCheck.Test.make ~name:"sub-range sweep == slice of whole sweep" ~count:40
    split_arb (fun (insts, packed, cut) ->
      let input = (insts, packed) in
      let whole = A.Icache_sweep.run (source_of input) icache_mixed_configs in
      let n = Array.length icache_mixed_configs in
      let cut = min cut (n - 1) in
      let part lo len =
        A.Icache_sweep.run (source_of input)
          (Array.sub icache_mixed_configs lo len)
      in
      let parts = Array.append (part 0 cut) (part cut (n - cut)) in
      Array.for_all2
        (fun (a : A.Icache_sweep.t) b ->
          List.for_all
            (fun scope ->
              A.Icache_sweep.insts a scope = A.Icache_sweep.insts b scope
              && A.Icache_sweep.misses a scope = A.Icache_sweep.misses b scope)
            scopes
          && A.Icache_sweep.accesses a = A.Icache_sweep.accesses b
          && feq (A.Icache_sweep.usefulness a) (A.Icache_sweep.usefulness b))
        whole parts)

let () =
  Alcotest.run "sweep"
    [ ("bp", Qseed.all [ prop_bp_fused ]);
      ("btb", Qseed.all [ prop_btb_fused ]);
      ("icache",
       Qseed.all
         [ prop_icache_fused; prop_icache_fused_prefetch;
           prop_icache_fused_preuse; prop_icache_fused_preuse_prefetch;
           prop_icache_fused_mixed; prop_icache_fused_mixed_prefetch;
           prop_split_ranges ])
    ]
