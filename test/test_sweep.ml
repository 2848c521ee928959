(* Differential tests for the fused multi-configuration sweep kernels.

   The contract under test: Repro_analysis.{Bp_sweep, Btb_sweep,
   Icache_sweep} over N configurations and one source are
   bit-identical — every counter and every derived float — to N
   independent per-configuration oracles (the test-local Bp_sim,
   Btb_sim and Icache_sim, fed one instruction at a time) over the
   same source, for both source forms (streaming trace and packed
   capture), and invariant under splitting the configuration
   axis into sub-ranges (the property Experiment's sweep_map relies
   on when it shards configurations across Engine domains).

   The oracles are independent of the LRU-stack algorithm the LRU
   I-cache and BTB sweeps run on: they drive the set-associative
   Frontend.Icache and Frontend.Btb models. A further property holds
   the kernels to theory rather than to another implementation: LRU
   misses never rise with more ways at a set count or with more sets
   at a number of ways. *)

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

(* Fetch-like streams, unlike [stream_gen], repeat lines, so
   same-line runs, warm-up repeats, hits, confident loop predictions
   and stale BTB targets are common. A stream is a list of:
   - a run of sequential instructions in a 16 KB window, ending in a
     branch. A conditional branch back to the run's start is a loop
     with a constant trip count per visit (what a loop predictor
     learns). Any other run repeats with its branch going the same way
     each time;
   - an indirect jump from one of four pcs that share a BTB set at
     every geometry swept here, to one of three targets. *)
let seq_run_gen =
  QCheck.Gen.(
    let* parallel = bool in
    let* warmup = frequencyl [ (2, false); (1, true) ] in
    let section = if parallel then S.Parallel else S.Serial in
    let* hop = frequencyl [ (5, false); (1, true) ] in
    if hop then
      let* addr = map (fun k -> 0x1000 * k) (int_range 1 4) in
      let* target = oneofl [ 0x40; 0x800; 0x2000 ] in
      return
        [ I.make ~kind:I.Indirect_branch ~taken:true ~target ~section ~warmup
            ~addr ~size:4 () ]
    else
      let* start = int_bound 0x3FFF in
      let* sizes = list_size (int_range 1 24) (int_range 1 8) in
      let* k = int_bound (Array.length kinds - 2) in
      let kind = kinds.(k + 1) in
      let* taken = frequencyl [ (3, true); (1, false) ] in
      let* back = bool in
      let* far = int_bound 0x3FFF in
      let* trip = int_range 1 6 in
      let* visits = int_range 1 8 in
      let n = List.length sizes in
      let addrs =
        List.rev
          (snd
             (List.fold_left
                (fun (a, acc) size -> (a + size, a :: acc))
                (start, []) sizes))
      in
      let body taken =
        List.mapi
          (fun j (addr, size) ->
            if j < n - 1 then I.make ~section ~warmup ~addr ~size ()
            else
              I.make ~kind ~taken
                ~target:(if not taken then 0 else if back then start else far)
                ~section ~warmup ~addr ~size ())
          (List.combine addrs sizes)
      in
      let repeat k f = List.concat (List.init k f) in
      return
        (if kind = I.Cond_branch && back then
           repeat visits (fun _ -> repeat trip (fun it -> body (it < trip - 1)))
         else repeat trip (fun _ -> body taken)))

let seq_stream_gen =
  QCheck.Gen.(map List.concat (list_size (int_range 0 60) seq_run_gen))

let seq_arb =
  QCheck.make
    QCheck.Gen.(pair seq_stream_gen bool)
    ~print:(fun (l, packed) ->
      Printf.sprintf "<%d sequential insts, %s>" (List.length l)
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

let bp_prop input =
  let fused = A.Bp_sweep.run (source_of input) (bp_specs ()) in
  let sims = bp_sims () in
  A.Tool.run_all_source (source_of input) (List.map Bp_sim.observer sims);
  List.for_all2 bp_agrees (Array.to_list fused) sims

let prop_bp_fused =
  QCheck.Test.make ~name:"Bp_sweep == per-config Bp_sim" ~count:60 stream_arb
    bp_prop

(* Loops make the loop predictor confident, so the L- configurations
   differ from their bases and share one loop predictor. *)
let prop_bp_fused_seq =
  QCheck.Test.make ~name:"Bp_sweep == per-config Bp_sim (sequential runs)"
    ~count:60 seq_arb bp_prop

(* ------------------------------------------------------------------ *)
(* BTB: mixed geometries, including configurations sharing a set
   count (identical (set, tag) decomposition) and direct-mapped vs
   highly associative extremes. *)

let btb_configs =
  [| (16, 1); (16, 2); (32, 2); (64, 2); (64, 8); (256, 4); (2048, 4);
     (256, 8); (8, 8) |]

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

let btb_prop input =

      let fused = A.Btb_sweep.run (source_of input) btb_configs in
      let sims =
        Array.to_list
          (Array.map (fun (entries, assoc) -> Btb_sim.create ~entries ~assoc)
             btb_configs)
      in
      A.Tool.run_all_source (source_of input) (List.map Btb_sim.observer sims);
      List.for_all2 btb_agrees (Array.to_list fused) sims

let prop_btb_fused =
  QCheck.Test.make ~name:"Btb_sweep == per-config Btb_sim" ~count:100
    stream_arb btb_prop

let prop_btb_fused_seq =
  QCheck.Test.make ~name:"Btb_sweep == per-config Btb_sim (sequential runs)"
    ~count:100 seq_arb btb_prop

(* ------------------------------------------------------------------ *)
(* I-cache: configurations sharing a line size (one group, shared
   decision) and differing ones (independent groups), small enough
   that the random streams cause evictions. *)

(* (1024,32,2) and (2048,32,4) share 16 sets, as do (4096,64,4) and
   (2048,64,2); (512,32,16) and (256,64,4) have one set; (1024,32,1)
   and (256,64,1) are direct-mapped. *)
let icache_geometries =
  [| (1024, 32, 1); (1024, 32, 2); (2048, 32, 4); (512, 32, 16);
     (1024, 64, 2); (4096, 64, 4); (2048, 64, 2); (256, 64, 4);
     (256, 64, 1); (2048, 128, 2) |]

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

(* Every field the per-config simulator exposes. Line usefulness
   comes from the sweep's cache-model entry point, run per config. *)
let icache_agrees ~next_line_prefetch input (c : A.Icache_sweep.config)
    (fused : A.Icache_sweep.t) (sim : Icache_sim.t) =
  List.for_all
    (fun scope ->
      A.Icache_sweep.insts fused scope = Icache_sim.insts sim scope
      && A.Icache_sweep.misses fused scope = Icache_sim.misses sim scope
      && feq (A.Icache_sweep.mpki fused scope) (Icache_sim.mpki sim scope))
    scopes
  && A.Icache_sweep.accesses fused = Icache_sim.accesses sim
  && A.Icache_sweep.line_misses fused = F.Icache.misses (Icache_sim.cache sim)
  && A.Icache_sweep.prefetches fused
     = F.Icache.prefetches (Icache_sim.cache sim)
  && A.Icache_sweep.useful_prefetches fused
     = F.Icache.useful_prefetches (Icache_sim.cache sim)
  && feq
       (A.Icache_sweep.usefulness ~next_line_prefetch (source_of input) c)
       (Icache_sim.usefulness sim)

let icache_prop ~configs ~next_line_prefetch input =
  let fused = A.Icache_sweep.run ~next_line_prefetch (source_of input) configs in
  let sims =
    Array.map
      (fun (c : A.Icache_sweep.config) ->
        Icache_sim.create ~next_line_prefetch ~policy:c.policy
          ~size_bytes:c.size_bytes ~line_bytes:c.line_bytes ~assoc:c.assoc ())
      configs
  in
  A.Tool.run_all_source (source_of input)
    (Array.to_list (Array.map Icache_sim.observer sims));
  let ok = ref true in
  Array.iteri
    (fun k c ->
      ok := !ok && icache_agrees ~next_line_prefetch input c fused.(k) sims.(k))
    configs;
  !ok

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

let prop_icache_fused_seq =
  QCheck.Test.make ~name:"Icache_sweep == per-config Icache_sim (sequential runs)"
    ~count:60 seq_arb
    (icache_prop ~configs:icache_configs ~next_line_prefetch:false)

let prop_icache_fused_mixed_seq =
  QCheck.Test.make
    ~name:"Icache_sweep == per-config Icache_sim (mixed policies, sequential runs)"
    ~count:60 seq_arb
    (icache_prop ~configs:icache_mixed_configs ~next_line_prefetch:false)

let prop_icache_fused_preuse_prefetch_seq =
  QCheck.Test.make
    ~name:
      "Icache_sweep == per-config Icache_sim (preuse, next-line prefetch, \
       sequential runs)"
    ~count:60 seq_arb
    (icache_prop ~configs:icache_preuse_configs ~next_line_prefetch:true)

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
          && A.Icache_sweep.line_misses a = A.Icache_sweep.line_misses b)
        whole parts)

(* ------------------------------------------------------------------ *)
(* LRU inclusion (Mattson et al.): at a fixed set count an a-way
   set holds the a most recently used lines of that set, so more ways
   never add a miss; with bit-selected sets, each set of a cache with
   more sets at the same ways sees a subset of the lines the coarser
   set sees, so more sets never add one either. The kernels run one
   stack per set count, so the second direction is a real check. *)

(* [(sets, assoc)] per result; [misses] per result and scope. *)
let inclusion_holds geometries misses =
  let n = Array.length geometries in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let sa, wa = geometries.(a) and sb, wb = geometries.(b) in
      if (sa = sb && wb > wa) || (wa = wb && sb > sa) then
        List.iter
          (fun scope -> if misses b scope > misses a scope then ok := false)
          scopes
    done
  done;
  !ok

let inclusion_icache_grid ~sizes ~line =
  List.concat_map
    (fun size ->
      List.filter_map
        (fun assoc ->
          if assoc * line <= size then Some (A.Icache_sweep.cfg (size, line, assoc))
          else None)
        [ 1; 2; 4; 8; 16 ])
    sizes
  |> Array.of_list

let inclusion_btb_grid ~entries =
  Array.of_list
    (List.concat_map
       (fun e ->
         List.filter_map
           (fun a -> if a <= e then Some (e, a) else None)
           [ 1; 2; 4; 8; 16 ])
       entries)

let inclusion_ok src ~icache ~btb =
  let ic = A.Icache_sweep.run src icache in
  let bt = A.Btb_sweep.run src btb in
  inclusion_holds
    (Array.map
       (fun (c : A.Icache_sweep.config) ->
         (c.size_bytes / c.line_bytes / c.assoc, c.assoc))
       icache)
    (fun k scope -> A.Icache_sweep.misses ic.(k) scope)
  && inclusion_holds
       (Array.map (fun (e, a) -> (e / a, a)) btb)
       (fun k scope -> A.Btb_sweep.misses bt.(k) scope)

let prop_inclusion =
  QCheck.Test.make ~name:"LRU misses never rise with more ways or more sets"
    ~count:100 seq_arb (fun input ->
      inclusion_ok (source_of input)
        ~icache:(inclusion_icache_grid ~sizes:[ 256; 512; 1024; 2048; 4096 ] ~line:32)
        ~btb:(inclusion_btb_grid ~entries:[ 16; 32; 64; 128; 256 ]))

(* The same oracle over every benchmark's capture at the CI scale
   (0.05), on the figures' range of geometries: I-cache 4K-64K x 1-16
   ways at 64B lines, BTB 128-2048 entries x 1-16 ways. *)
let test_inclusion_profiles () =
  let icache =
    inclusion_icache_grid ~sizes:[ 4096; 8192; 16384; 32768; 65536 ] ~line:64
  in
  let btb = inclusion_btb_grid ~entries:[ 128; 256; 512; 1024; 2048 ] in
  List.iter
    (fun (p : Repro_workload.Profile.t) ->
      let insts =
        max 50_000 (int_of_float (float_of_int p.total_insts *. 0.05))
      in
      let src =
        A.Tool.Source.of_packed
          (Repro_workload.Executor.packed
             (Repro_workload.Executor.create ~insts p))
      in
      Alcotest.(check bool) p.name true (inclusion_ok src ~icache ~btb))
    Repro_workload.Suites.all

(* A bad geometry raises the cache models' own [Invalid_argument],
   although the stack kernels never build a model. *)
let test_bad_geometries () =
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let src = source_of ([], true) in
  raises "Icache.create: sizes must be powers of two" (fun () ->
      A.Icache_sweep.run src [| A.Icache_sweep.cfg (3000, 64, 4) |]);
  raises "Icache.create: line too narrow" (fun () ->
      A.Icache_sweep.run src [| A.Icache_sweep.cfg (1024, 2, 1) |]);
  raises "Icache.create: assoc too high" (fun () ->
      A.Icache_sweep.run src [| A.Icache_sweep.cfg (256, 64, 8) |]);
  raises "Btb.create: entries" (fun () -> A.Btb_sweep.run src [| (100, 4) |]);
  raises "Btb.create: assoc" (fun () -> A.Btb_sweep.run src [| (16, 32) |])

let () =
  Alcotest.run "sweep"
    [ ("bp", Qseed.all [ prop_bp_fused; prop_bp_fused_seq ]);
      ("btb", Qseed.all [ prop_btb_fused; prop_btb_fused_seq ]);
      ("icache",
       Qseed.all
         [ prop_icache_fused; prop_icache_fused_prefetch;
           prop_icache_fused_preuse; prop_icache_fused_preuse_prefetch;
           prop_icache_fused_mixed; prop_icache_fused_mixed_prefetch;
           prop_split_ranges; prop_icache_fused_seq;
           prop_icache_fused_mixed_seq;
           prop_icache_fused_preuse_prefetch_seq ]);
      ("lru",
       Qseed.all [ prop_inclusion ]
       @ [ Alcotest.test_case "41 profiles at scale 0.05" `Slow
             test_inclusion_profiles;
           Alcotest.test_case "bad geometries raise" `Quick
             test_bad_geometries ])
    ]
