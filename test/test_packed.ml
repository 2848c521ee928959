(* Differential tests for the packed-trace capture/replay path.

   The contract under test: a Repro_isa.Packed_trace capture is
   observationally identical to the stream it was built from — full
   replay, the filtered conditional/redirect replays, the bulk section
   counts, characterizations and per-address footprint tables built
   from it (Marshal byte-identity),
   and every trace-simulating experiment's rendered tables, across
   sequential and parallel engine runs and through the disk cache. *)

module I = Repro_isa.Inst
module S = Repro_isa.Section
module Trace = Repro_isa.Trace
module P = Repro_isa.Packed_trace
module W = Repro_workload
module A = Repro_analysis
module C = Repro_core

(* ------------------------------------------------------------------ *)
(* Random instruction streams. *)

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

let stream_gen = QCheck.Gen.(list_size (int_range 0 400) inst_gen)

let stream_arb =
  QCheck.make stream_gen
    ~print:(fun l ->
      Printf.sprintf "<%d insts>%s" (List.length l)
        (String.concat ""
           (List.map (fun i -> Format.asprintf "@.%a" I.pp i) l)))

(* Chunk capacities small enough that multi-chunk traces are common. *)
let with_chunks = QCheck.(pair stream_arb (int_range 1 64))

let fields (i : I.t) =
  (i.addr, i.size, i.kind, i.taken, i.target, i.section, i.warmup)

let collect replay =
  let acc = ref [] in
  replay (fun i -> acc := fields i :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Replay identity. *)

let prop_replay_identity =
  QCheck.Test.make ~name:"replay == original stream" ~count:200 with_chunks
    (fun (insts, cap) ->
      let pt = P.of_trace ~chunk_capacity:cap (Trace.of_list insts) in
      P.length pt = List.length insts
      && collect (P.replay pt) = List.map fields insts
      && collect (fun f -> Trace.iter (P.to_trace pt) f)
         = List.map fields insts)

let prop_filtered_replays =
  QCheck.Test.make ~name:"filtered replays == filtered stream" ~count:200
    with_chunks (fun (insts, cap) ->
      let pt = P.of_trace ~chunk_capacity:cap (Trace.of_list insts) in
      let conds = List.filter (fun (i : I.t) -> i.kind = I.Cond_branch) insts
      and redirects =
        List.filter
          (fun (i : I.t) ->
            i.taken && I.is_branch i && i.kind <> I.Syscall
            && i.kind <> I.Return)
          insts
      in
      collect (P.replay_conditionals pt) = List.map fields conds
      && collect (P.replay_redirects pt) = List.map fields redirects)

let prop_counted =
  QCheck.Test.make ~name:"counted == non-warmup section totals" ~count:200
    with_chunks (fun (insts, cap) ->
      let pt = P.of_trace ~chunk_capacity:cap (Trace.of_list insts) in
      let count sec =
        List.length
          (List.filter
             (fun (i : I.t) -> (not i.warmup) && i.section = sec)
             insts)
      in
      P.counted pt = (count S.Serial, count S.Parallel))

let prop_marshal_roundtrip =
  QCheck.Test.make ~name:"Marshal round-trip replays identically" ~count:50
    with_chunks (fun (insts, cap) ->
      let pt = P.of_trace ~chunk_capacity:cap (Trace.of_list insts) in
      let pt' : P.t = Marshal.from_string (Marshal.to_string pt []) 0 in
      collect (P.replay pt') = List.map fields insts)

let test_size_validation () =
  let bad size =
    let tr = Trace.of_list [ I.make ~addr:0 ~size () ] in
    Alcotest.check_raises "size rejected"
      (Invalid_argument
         "Packed_trace.of_trace: instruction size outside 1..255")
      (fun () -> ignore (P.of_trace tr))
  in
  bad 0;
  bad 256;
  (* 255 is the last encodable size. *)
  let tr = Trace.of_list [ I.make ~addr:0 ~size:255 () ] in
  Alcotest.(check int) "size 255 survives" 255
    (match Trace.to_list (P.to_trace (P.of_trace tr)) with
    | [ i ] -> i.I.size
    | _ -> -1)

(* ------------------------------------------------------------------ *)
(* Capture of a real workload == its streaming trace, and the
   characterization built from either is Marshal byte-identical. A
   characterization keeps only the footprint summary, so the
   per-address footprint table is compared on its own. *)

let executor_capture_matches name =
  let p = W.Suites.find name in
  let ex = W.Executor.create ~insts:60_000 p in
  let streamed = collect (fun f -> W.Executor.run ex f) in
  let pt = W.Executor.packed ex in
  Alcotest.(check int) (name ^ " length") (List.length streamed) (P.length pt);
  Alcotest.(check bool)
    (name ^ " replay == stream") true
    (collect (P.replay pt) = streamed);
  let charz trace = A.Characterization.of_trace ~name ~suite:p.suite trace in
  Alcotest.(check string)
    (name ^ " characterization bytes")
    (Marshal.to_string (charz (W.Executor.trace ex)) [])
    (Marshal.to_string (charz (P.to_trace pt)) []);
  let footprint trace =
    let f = A.Footprint.create () in
    A.Tool.run_all trace [ A.Footprint.observer f ];
    Marshal.to_string f []
  in
  Alcotest.(check string)
    (name ^ " footprint table bytes")
    (footprint (W.Executor.trace ex))
    (footprint (P.to_trace pt))

let test_executor_capture () =
  List.iter executor_capture_matches [ "FT"; "CoMD"; "gobmk" ]

(* ------------------------------------------------------------------ *)
(* Every trace-simulating experiment renders byte-identical tables
   with packed replay on and off, sequentially and in parallel. *)

let sweep_ids = C.Experiment.[ Fig5; Fig6; Fig7; Fig8; Fig9 ]

let render ~packed ~jobs id =
  C.Experiment.set_packed packed;
  C.Experiment.clear_cache ();
  Fun.protect
    ~finally:(fun () -> C.Experiment.set_packed true)
    (fun () -> C.Report.run_to_string ~scale:0.02 ~jobs id)

let test_sweeps_identical id () =
  C.Cache.set_enabled false;
  let reference = render ~packed:false ~jobs:1 id in
  Alcotest.(check string) "packed -j1 == streaming -j1" reference
    (render ~packed:true ~jobs:1 id);
  Alcotest.(check string) "packed -j4 == streaming -j1" reference
    (render ~packed:true ~jobs:4 id)

(* ------------------------------------------------------------------ *)
(* Static branch-prediction engines (Always_taken / Always_not_taken /
   Btfn) on the packed conditional fast path: Bp_sim.run_all over a
   capture replays only the conditional branches and absorbs the
   instruction totals in bulk, and the statics carry no state that
   warmup could train — the packed counts must equal the streaming
   counts AND a direct recount over the raw list (warmup excluded). *)

let static_predicts s (i : I.t) =
  match s with
  | A.Bp_sim.Always_taken -> true
  | A.Bp_sim.Always_not_taken -> false
  | A.Bp_sim.Btfn -> i.target < i.addr

let prop_static_engines =
  QCheck.Test.make ~name:"static engines: packed == stream == recount"
    ~count:150 with_chunks (fun (insts, cap) ->
      let statics = A.Bp_sim.[ Always_taken; Always_not_taken; Btfn ] in
      let tr = Trace.of_list insts in
      let pt = P.of_trace ~chunk_capacity:cap tr in
      let run src =
        let sims = List.map A.Bp_sim.create_static statics in
        A.Bp_sim.run_all src sims;
        sims
      in
      let streamed = run (A.Tool.Source.of_trace tr)
      and packed = run (A.Tool.Source.of_packed pt) in
      let scopes = A.Branch_mix.[ Total; Only S.Serial; Only S.Parallel ] in
      List.for_all2
        (fun s (st, pk) ->
          List.for_all
            (fun scope ->
              let expect sec_ok pred_wrong =
                List.length
                  (List.filter
                     (fun (i : I.t) ->
                       (not i.warmup) && sec_ok i
                       && (not pred_wrong
                           || i.kind = I.Cond_branch
                              && static_predicts s i <> i.taken))
                     insts)
              in
              let in_scope (i : I.t) =
                match scope with
                | A.Branch_mix.Total -> true
                | A.Branch_mix.Only sec -> i.section = sec
              in
              let want_insts = expect in_scope false
              and want_miss = expect in_scope true in
              A.Bp_sim.insts st scope = want_insts
              && A.Bp_sim.insts pk scope = want_insts
              && A.Bp_sim.mispredictions st scope = want_miss
              && A.Bp_sim.mispredictions pk scope = want_miss
              && A.Bp_sim.conditional_branches st scope
                 = A.Bp_sim.conditional_branches pk scope)
            scopes)
        statics
        (List.combine streamed packed))

(* ------------------------------------------------------------------ *)
(* Disk persistence: with REPRO_PACKED_CACHE=1 a capture written by
   one run is read back by the next and replays identically. *)

let test_disk_persistence () =
  let dir = "packed_cache_dir" in
  C.Cache.set_dir dir;
  C.Cache.set_enabled true;
  Unix.putenv "REPRO_PACKED_CACHE" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "REPRO_PACKED_CACHE" "0";
      C.Experiment.clear_cache ~disk:true ();
      C.Cache.set_enabled false;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      C.Experiment.set_packed true;
      C.Experiment.clear_cache ();
      let cold = C.Report.run_to_string ~scale:0.02 ~jobs:1 C.Experiment.Fig7 in
      (* Drop the in-process memo; the second run must be served by the
         persistent cache and still render the same bytes. *)
      C.Experiment.clear_cache ();
      let hits0 = (C.Engine.stats ()).cache_hits in
      let warm = C.Report.run_to_string ~scale:0.02 ~jobs:1 C.Experiment.Fig7 in
      Alcotest.(check string) "warm == cold" cold warm;
      Alcotest.(check bool) "captures served from disk" true
        ((C.Engine.stats ()).cache_hits > hits0))

let () =
  Alcotest.run "packed"
    [ ("encoding",
       Qseed.all
         [ prop_replay_identity; prop_filtered_replays; prop_counted;
           prop_marshal_roundtrip ]
       @ [ Alcotest.test_case "size validation" `Quick test_size_validation ]);
      ("capture",
       [ Alcotest.test_case "executor capture" `Slow test_executor_capture ]);
      ("statics", Qseed.all [ prop_static_engines ]);
      ("sweeps",
       List.map
         (fun id ->
           Alcotest.test_case (C.Experiment.to_string id) `Slow
             (test_sweeps_identical id))
         sweep_ids);
      ("persistence",
       [ Alcotest.test_case "disk cache round-trip" `Slow
           test_disk_persistence ]) ]
