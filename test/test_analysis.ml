(* Tests for the analysis tools ("pintools") on hand-crafted traces
   with known statistics. *)

module A = Repro_analysis
module Inst = Repro_isa.Inst
module Section = Repro_isa.Section
module Trace = Repro_isa.Trace

let total = A.Branch_mix.Total
let serial = A.Branch_mix.Only Section.Serial
let parallel = A.Branch_mix.Only Section.Parallel

let mk ?(kind = Inst.Plain) ?(taken = false) ?(target = 0)
    ?(section = Section.Serial) ?(warmup = false) ?(size = 4) addr =
  Inst.make ~kind ~taken ~target ~section ~warmup ~addr ~size ()

(* A fixed fixture: 10 instructions, 3 branches. *)
let fixture () =
  [ mk 0;
    mk 4;
    mk ~kind:Inst.Cond_branch ~taken:true ~target:0 8; (* backward taken *)
    mk ~section:Section.Parallel 12;
    mk ~kind:Inst.Cond_branch ~taken:false ~target:24 ~section:Section.Parallel 16;
    mk ~section:Section.Parallel 20;
    mk ~kind:Inst.Call ~taken:true ~target:100 ~section:Section.Parallel 24;
    mk ~section:Section.Parallel 100;
    mk ~kind:Inst.Return ~taken:true ~target:28 ~section:Section.Parallel 104;
    mk ~section:Section.Parallel 28 ]

(* ------------------------------------------------------------------ *)

let test_branch_mix_counts () =
  let m = A.Branch_mix.create () in
  List.iter (A.Branch_mix.feed m) (fixture ());
  Alcotest.(check int) "insts" 10 (A.Branch_mix.insts m total);
  Alcotest.(check int) "serial insts" 3 (A.Branch_mix.insts m serial);
  Alcotest.(check int) "branches" 4 (A.Branch_mix.branches m total);
  Alcotest.(check (float 1e-9)) "direct branch fraction" 0.2
    (A.Branch_mix.fraction m total A.Branch_mix.Direct_branch);
  Alcotest.(check (float 1e-9)) "call fraction" 0.1
    (A.Branch_mix.fraction m total A.Branch_mix.Call);
  Alcotest.(check (float 1e-9)) "return fraction" 0.1
    (A.Branch_mix.fraction m total A.Branch_mix.Return);
  Alcotest.(check (float 1e-9)) "cond fraction" 0.2
    (A.Branch_mix.conditional_fraction m total)

let test_branch_mix_skips_warmup () =
  let m = A.Branch_mix.create () in
  A.Branch_mix.feed m (mk ~warmup:true 0);
  A.Branch_mix.feed m (mk 4);
  Alcotest.(check int) "warmup skipped" 1 (A.Branch_mix.insts m total)

let test_branch_bias_deciles () =
  let b = A.Branch_bias.create () in
  (* One site taken 9/10 times; one site taken 0/10. *)
  for i = 1 to 10 do
    A.Branch_bias.feed b
      (mk ~kind:Inst.Cond_branch ~taken:(i < 10) ~target:0 64);
    A.Branch_bias.feed b (mk ~kind:Inst.Cond_branch ~taken:false ~target:200 128)
  done;
  let d = A.Branch_bias.deciles b total in
  Alcotest.(check (float 1e-9)) "0-10% bucket holds half" 0.5 d.(0);
  Alcotest.(check (float 1e-9)) "90-100% bucket holds half" 0.5 d.(9);
  Alcotest.(check (float 1e-9)) "biased = all" 1.0
    (A.Branch_bias.biased_fraction b total);
  Alcotest.(check int) "two sites" 2 (A.Branch_bias.static_sites b)

let test_branch_bias_backward () =
  let b = A.Branch_bias.create () in
  (* two backward taken, one forward taken, one not taken *)
  A.Branch_bias.feed b (mk ~kind:Inst.Cond_branch ~taken:true ~target:0 64);
  A.Branch_bias.feed b (mk ~kind:Inst.Cond_branch ~taken:true ~target:0 64);
  A.Branch_bias.feed b (mk ~kind:Inst.Cond_branch ~taken:true ~target:999 64);
  A.Branch_bias.feed b (mk ~kind:Inst.Cond_branch ~taken:false ~target:0 64);
  Alcotest.(check (float 1e-9)) "backward share" (2.0 /. 3.0)
    (A.Branch_bias.backward_taken_fraction b total);
  Alcotest.(check (float 1e-9)) "taken share" 0.75
    (A.Branch_bias.taken_fraction b total)

let test_footprint () =
  let f = A.Footprint.create () in
  (* Two distinct addrs, one hot (99 execs), one cold (1 exec). *)
  for _ = 1 to 99 do
    A.Footprint.feed f (mk ~size:8 0x1000)
  done;
  A.Footprint.feed f (mk ~size:4 0x2000);
  Alcotest.(check int) "static bytes" 12 (A.Footprint.static_bytes f total);
  Alcotest.(check int) "static insts" 2 (A.Footprint.static_insts f total);
  Alcotest.(check int) "99% coverage needs hot inst" 8
    (A.Footprint.dynamic_bytes f total ~coverage:0.99);
  Alcotest.(check int) "full coverage needs both" 12
    (A.Footprint.dynamic_bytes f total ~coverage:1.0)

let test_footprint_warmup_static_only () =
  let f = A.Footprint.create () in
  A.Footprint.feed f (mk ~warmup:true ~size:4 0x3000);
  A.Footprint.feed f (mk ~size:4 0x4000);
  Alcotest.(check int) "static includes warmup" 8
    (A.Footprint.static_bytes f total);
  Alcotest.(check int) "dynamic excludes warmup" 4
    (A.Footprint.dynamic_bytes f total ~coverage:1.0)

(* The summary a characterization keeps must equal what the per-address
   accumulator computes for every scope. Addresses come from a small
   range so cells repeat and weights tie, which exercises the sort's
   tie order. *)
let inst_gen =
  QCheck.Gen.(
    let* addr = int_bound 63 in
    let* size = int_range 1 15 in
    let* parallel = bool in
    let* warmup = frequencyl [ (3, false); (1, true) ] in
    return
      (mk ~size ~warmup
         ~section:(if parallel then Section.Parallel else Section.Serial)
         (addr * 16)))

let prop_footprint_summary =
  QCheck.Test.make ~name:"summary == accumulator, all scopes" ~count:200
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "<%d insts>" (List.length l))
       QCheck.Gen.(list_size (int_range 0 300) inst_gen))
    (fun stream ->
      let f = A.Footprint.create () in
      List.iter (A.Footprint.feed f) stream;
      let hot scope =
        A.Footprint.dynamic_bytes f scope ~coverage:A.Footprint.coverage
      in
      let expect =
        { A.Footprint.static_total = A.Footprint.static_bytes f total;
          hot_total = hot total;
          hot_serial = hot serial;
          hot_parallel = hot parallel }
      in
      let c =
        A.Characterization.of_trace ~name:"prop"
          ~suite:Repro_workload.Suite.Npb (Trace.of_list stream)
      in
      A.Footprint.summarize f = expect
      && c.footprint = expect
      && List.for_all
           (fun scope -> A.Footprint.hot_bytes expect scope = hot scope)
           [ total; serial; parallel ])

(* Coverage picks the hottest instructions first; equal counts are
   taken in address order, whatever order they were fed in. *)
let test_footprint_coverage_order () =
  let fed insts =
    let f = A.Footprint.create () in
    List.iter
      (fun (addr, size, n) ->
        for _ = 1 to n do A.Footprint.feed f (mk ~size addr) done)
      insts;
    f
  in
  let cover f coverage = A.Footprint.dynamic_bytes f total ~coverage in
  let f = fed [ (0x100, 100, 90); (0x200, 50, 9); (0x300, 1000, 1) ] in
  Alcotest.(check int) "99% needs the two hottest" 150 (cover f 0.99);
  Alcotest.(check int) "50% needs the hottest" 100 (cover f 0.5);
  Alcotest.(check int) "empty" 0 (cover (fed []) 0.9);
  Alcotest.(check int) "tie takes the lower address" 8
    (cover (fed [ (0x10, 8, 1); (0x20, 4, 1) ]) 0.5);
  Alcotest.(check int) "tie, fed in reverse" 8
    (cover (fed [ (0x20, 4, 1); (0x10, 8, 1) ]) 0.5);
  Alcotest.(check int) "tie, sizes swapped" 4
    (cover (fed [ (0x20, 8, 1); (0x10, 4, 1) ]) 0.5)

(* [dynamic_bytes] against a naive model: per address the size first
   seen and the in-scope count, sorted by count (descending) then
   address. The generator's 64 addresses make ties the common case. *)
let naive_dynamic_bytes stream scope ~coverage =
  let in_scope (i : Inst.t) =
    (not i.warmup)
    &&
    match scope with
    | A.Branch_mix.Total -> true
    | A.Branch_mix.Only s -> i.section = s
  in
  let addrs = List.sort_uniq compare (List.map (fun (i : Inst.t) -> i.addr) stream) in
  let cells =
    List.filter_map
      (fun a ->
        let size = (List.find (fun (i : Inst.t) -> i.addr = a) stream).size in
        let n =
          List.length (List.filter (fun (i : Inst.t) -> i.addr = a && in_scope i) stream)
        in
        if n > 0 then Some (n, a, size) else None)
      addrs
  in
  let sorted =
    List.sort (fun (n1, a1, _) (n2, a2, _) -> compare (n2, a1) (n1, a2)) cells
  in
  let target =
    coverage *. float_of_int (List.fold_left (fun acc (n, _, _) -> acc + n) 0 cells)
  in
  let rec go bytes mass = function
    | (n, _, size) :: rest when float_of_int mass < target ->
        go (bytes + size) (mass + n) rest
    | _ -> bytes
  in
  go 0 0 sorted

let prop_footprint_total_order =
  QCheck.Test.make ~name:"dynamic_bytes == naive total order, ties" ~count:200
    (QCheck.make
       ~print:(fun (l, c) -> Printf.sprintf "<%d insts> coverage %g" (List.length l) c)
       QCheck.Gen.(
         pair (list_size (int_range 0 300) inst_gen)
           (oneofl [ 0.0; 0.5; 0.9; 0.99; 1.0 ])))
    (fun (stream, coverage) ->
      let f = A.Footprint.create () in
      List.iter (A.Footprint.feed f) stream;
      List.for_all
        (fun scope ->
          A.Footprint.dynamic_bytes f scope ~coverage
          = naive_dynamic_bytes stream scope ~coverage)
        [ total; serial; parallel ])

(* A characterization is what the disk cache stores per benchmark, so
   it must stay small: no per-address table may creep back in. The
   budget is the experiments' scale-0.05 one. *)
let test_characterization_size () =
  List.iter
    (fun (p : Repro_workload.Profile.t) ->
      let insts =
        max 50_000 (int_of_float (float_of_int p.total_insts *. 0.05))
      in
      let bytes =
        String.length
          (Marshal.to_string (A.Characterization.of_profile ~insts p) [])
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d bytes < 64 KB" p.name bytes)
        true (bytes < 64 * 1024))
    Repro_workload.Suites.all

let test_bblock_stats () =
  let s = A.Bblock_stats.create () in
  (* Two blocks: 3 insts (12B) ending taken, 2 insts (8B) ending not
     taken, then 1 inst (4B) ending taken. *)
  List.iter (A.Bblock_stats.feed s)
    [ mk 0; mk 4;
      mk ~kind:Inst.Cond_branch ~taken:true ~target:0 8;
      mk 12;
      mk ~kind:Inst.Cond_branch ~taken:false ~target:0 16;
      mk ~kind:Inst.Cond_branch ~taken:true ~target:0 20 ];
  Alcotest.(check (float 1e-9)) "avg block bytes" 8.0
    (A.Bblock_stats.avg_block_bytes s total);
  Alcotest.(check (float 1e-9)) "avg block insts" 2.0
    (A.Bblock_stats.avg_block_insts s total);
  (* taken runs: 12B and 12B (8+4) *)
  Alcotest.(check (float 1e-9)) "avg taken distance" 12.0
    (A.Bblock_stats.avg_taken_distance s total)

let test_bp_sim_perfect_and_never () =
  let always_right =
    Repro_frontend.Predictor.make ~name:"oracle-taken"
      ~step:(fun _ _ -> true)
      ~storage_bits:0
  in
  let sim = Bp_sim.create always_right in
  for _ = 1 to 100 do
    Bp_sim.feed sim (mk ~kind:Inst.Cond_branch ~taken:true ~target:0 64);
    Bp_sim.feed sim (mk 0)
  done;
  Alcotest.(check (float 1e-9)) "oracle mpki" 0.0 (Bp_sim.mpki sim total);
  let always_wrong =
    Repro_frontend.Predictor.make ~name:"anti"
      ~step:(fun _ _ -> false)
      ~storage_bits:0
  in
  let sim2 = Bp_sim.create always_wrong in
  for _ = 1 to 100 do
    Bp_sim.feed sim2 (mk ~kind:Inst.Cond_branch ~taken:true ~target:0 64);
    Bp_sim.feed sim2 (mk 0)
  done;
  Alcotest.(check (float 1e-9)) "anti mpki = 500" 500.0
    (Bp_sim.mpki sim2 total);
  Alcotest.(check (float 1e-9)) "all misses on taken-backward" 500.0
    (Bp_sim.mpki_by_cause sim2 total A.Bp_sweep.On_taken_backward);
  Alcotest.(check (float 1e-9)) "none on not-taken" 0.0
    (Bp_sim.mpki_by_cause sim2 total A.Bp_sweep.On_not_taken)

let test_btb_sim () =
  let sim = Btb_sim.create ~entries:64 ~assoc:4 in
  (* Same taken branch twice: first lookup misses, second hits. *)
  let br () = mk ~kind:Inst.Uncond_direct ~taken:true ~target:0x9000 64 in
  Btb_sim.feed sim (br ());
  Btb_sim.feed sim (br ());
  Alcotest.(check int) "one miss" 1 (Btb_sim.misses sim total);
  Alcotest.(check int) "two taken" 2 (Btb_sim.taken_branches sim total);
  (* Returns are RAS-predicted: no BTB traffic. *)
  Btb_sim.feed sim (mk ~kind:Inst.Return ~taken:true ~target:0x1234 128);
  Alcotest.(check int) "returns skip btb" 2 (Btb_sim.taken_branches sim total)

let test_btb_sim_target_change () =
  let sim = Btb_sim.create ~entries:64 ~assoc:4 in
  Btb_sim.feed sim (mk ~kind:Inst.Indirect_call ~taken:true ~target:0x100 64);
  Btb_sim.feed sim (mk ~kind:Inst.Indirect_call ~taken:true ~target:0x200 64);
  Alcotest.(check int) "stale target misses" 2 (Btb_sim.misses sim total)

let test_icache_sim_sequential () =
  let sim = Icache_sim.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  (* 32 sequential 4-byte instructions = 128 bytes = 2 lines = 2 misses. *)
  for i = 0 to 31 do
    Icache_sim.feed sim (mk ~size:4 (0x4000 + (i * 4)))
  done;
  Alcotest.(check int) "two line misses" 2 (Icache_sim.misses sim total);
  (* Re-run: now hits, no further misses. *)
  for i = 0 to 31 do
    Icache_sim.feed sim (mk ~size:4 (0x4000 + (i * 4)))
  done;
  Alcotest.(check int) "still two" 2 (Icache_sim.misses sim total);
  Alcotest.(check (float 0.01)) "fully useful" 1.0 (Icache_sim.usefulness sim)

let test_icache_sim_taken_redirect () =
  let sim = Icache_sim.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  (* Taken branch forces a new-line access even within the same line. *)
  Icache_sim.feed sim (mk ~size:4 0x4000);
  Icache_sim.feed sim
    (mk ~kind:Inst.Cond_branch ~taken:true ~target:0x4008 ~size:4 0x4004);
  Icache_sim.feed sim (mk ~size:4 0x4008);
  (* 3rd instruction is in the same line but after a taken branch the
     fetch restarts: access counted, hit. *)
  Alcotest.(check int) "one miss only" 1 (Icache_sim.misses sim total);
  Alcotest.(check bool) "more than one access" true (Icache_sim.accesses sim >= 2)

let test_tool_run_all_order () =
  let seen = ref [] in
  let obs tag = fun (_ : Inst.t) -> seen := tag :: !seen in
  A.Tool.run_all (Trace.of_list [ mk 0 ]) [ obs "a"; obs "b"; obs "c" ];
  Alcotest.(check (list string)) "order per instruction" [ "c"; "b"; "a" ] !seen

let test_characterization_of_trace () =
  let c =
    A.Characterization.of_trace ~name:"fixture" ~suite:Repro_workload.Suite.Npb
      (Trace.of_list (fixture ()))
  in
  Alcotest.(check int) "insts seen" 10 (A.Branch_mix.insts c.mix total);
  Alcotest.(check int) "sites" 2 (A.Branch_bias.static_sites c.bias)

let test_suite_mean_skips_nan () =
  let v = A.Characterization.suite_mean [] (fun _ -> 1.0) in
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan v)

let () =
  Alcotest.run "analysis"
    [ ("branch_mix",
       [ Alcotest.test_case "counts" `Quick test_branch_mix_counts;
         Alcotest.test_case "warmup" `Quick test_branch_mix_skips_warmup ]);
      ("branch_bias",
       [ Alcotest.test_case "deciles" `Quick test_branch_bias_deciles;
         Alcotest.test_case "backward" `Quick test_branch_bias_backward ]);
      ("footprint",
       [ Alcotest.test_case "static/dynamic" `Quick test_footprint;
         Alcotest.test_case "warmup static only" `Quick
           test_footprint_warmup_static_only;
         Alcotest.test_case "coverage order" `Quick
           test_footprint_coverage_order ]
       @ Qseed.all [ prop_footprint_summary; prop_footprint_total_order ]);
      ("bblock_stats", [ Alcotest.test_case "known trace" `Quick test_bblock_stats ]);
      ("bp_sim",
       [ Alcotest.test_case "oracle and anti" `Quick test_bp_sim_perfect_and_never ]);
      ("btb_sim",
       [ Alcotest.test_case "miss then hit" `Quick test_btb_sim;
         Alcotest.test_case "target change" `Quick test_btb_sim_target_change ]);
      ("icache_sim",
       [ Alcotest.test_case "sequential" `Quick test_icache_sim_sequential;
         Alcotest.test_case "taken redirect" `Quick test_icache_sim_taken_redirect ]);
      ("plumbing",
       [ Alcotest.test_case "run_all order" `Quick test_tool_run_all_order;
         Alcotest.test_case "characterization" `Quick
           test_characterization_of_trace;
         Alcotest.test_case "suite_mean" `Quick test_suite_mean_skips_nan;
         Alcotest.test_case "characterization size" `Slow
           test_characterization_size ]) ]
