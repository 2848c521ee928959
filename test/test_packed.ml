(* Differential tests for the packed-trace capture/replay path.

   The contract under test: a Repro_isa.Packed_trace capture is
   observationally identical to the stream it was built from — full
   replay, the filtered conditional/redirect replays, the bulk section
   counts, characterizations and per-address footprint tables built
   from it (Marshal byte-identity), and every trace-simulating
   experiment's rendered tables, across sequential and parallel engine
   runs. The encoding stores addresses only where the stream is not
   predictable, so it is checked both on streams where every address
   is a discontinuity and on realistic streams where almost none is.
   The capture is also held to its memory contract: an honest
   [byte_size], at most 4 bytes per instruction over the 41 scale-1.0
   benchmarks, and an allocation-free replay. *)

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

(* Realistic streams: each address is the previous instruction's
   taken target, else its fall-through, except where a discontinuity
   is forced — at chunk position 0, right after a taken branch, after
   a syscall and across the warmup boundary (plus a rare random one).
   Not-taken conditionals carry a nonzero target, as the executor's
   do. Addresses stay below the executor's kernel pc. *)

let branch_kinds = Array.sub kinds 1 (Array.length kinds - 1)

let realistic_gen st =
  let open QCheck.Gen in
  let cap = int_range 1 64 st and n = int_range 0 400 st in
  let fresh () = int_bound 0x7000_0000 st in
  let warmup_len = int_bound n st in
  let pc = ref (fresh ()) and prev = ref (I.Plain, false) in
  let parallel = ref false and acc = ref [] in
  for i = 0 to n - 1 do
    let jump =
      (i mod cap = 0 && bool st)
      || (i = warmup_len && i > 0)
      || (match !prev with
         | I.Syscall, _ -> bool st
         | _, true -> int_bound 3 st = 0
         | _ -> false)
      || int_bound 50 st = 0
    in
    let addr = if jump then (!pc + 1 + fresh ()) mod 0x7000_0000 else !pc in
    let size = int_range 1 15 st in
    let kind =
      if int_bound 7 st > 0 then I.Plain
      else branch_kinds.(int_bound (Array.length branch_kinds - 1) st)
    in
    let taken =
      match kind with
      | I.Plain -> false
      | I.Cond_branch -> bool st
      | _ -> true
    in
    let target =
      match kind with
      | I.Plain -> 0
      | I.Syscall -> 0x7000_0000
      | _ -> 1 + fresh ()
    in
    if int_bound 20 st = 0 then parallel := not !parallel;
    acc :=
      I.make ~kind ~taken ~target
        ~section:(if !parallel then S.Parallel else S.Serial)
        ~warmup:(i < warmup_len) ~addr ~size ()
      :: !acc;
    prev := (kind, taken);
    pc := if taken then target else addr + size
  done;
  (cap, List.rev !acc)

let realistic_arb =
  QCheck.make realistic_gen ~print:(fun (cap, l) ->
      Printf.sprintf "cap %d, <%d insts>%s" cap (List.length l)
        (String.concat ""
           (List.map (fun i -> Format.asprintf "@.%a" I.pp i) l)))

(* Every read of [pt] equals the stream [insts]. *)
let replays_stream pt insts =
  let conds = List.filter (fun (i : I.t) -> i.kind = I.Cond_branch) insts
  and redirects =
    List.filter
      (fun (i : I.t) ->
        i.taken && I.is_branch i && i.kind <> I.Syscall && i.kind <> I.Return)
      insts
  in
  let count sec =
    List.length
      (List.filter (fun (i : I.t) -> (not i.warmup) && i.section = sec) insts)
  in
  P.length pt = List.length insts
  && collect (P.replay pt) = List.map fields insts
  && collect (fun f -> Trace.iter (P.to_trace pt) f) = List.map fields insts
  && collect (P.replay_conditionals pt) = List.map fields conds
  && collect (P.replay_redirects pt) = List.map fields redirects
  && P.counted pt = (count S.Serial, count S.Parallel)

let prop_realistic_roundtrip =
  QCheck.Test.make ~name:"realistic streams: every read == stream"
    ~count:300 realistic_arb (fun (cap, insts) ->
      let pt = P.of_trace ~chunk_capacity:cap (Trace.of_list insts) in
      let pt' : P.t = Marshal.from_string (Marshal.to_string pt []) 0 in
      replays_stream pt insts && replays_stream pt' insts)

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

(* The 32-bit address columns and 16-bit chunk positions reject what
   they cannot hold, like the size byte does; the largest values that
   fit survive. *)
let test_column_validation () =
  let addr_msg = "Packed_trace.of_trace: address outside 0..0xFFFFFFFF" in
  List.iter
    (fun i ->
      Alcotest.check_raises "address rejected" (Invalid_argument addr_msg)
        (fun () -> ignore (P.of_trace (Trace.of_list [ i ]))))
    [ I.make ~addr:0x1_0000_0000 ~size:1 ();
      I.make ~addr:(-1) ~size:1 ();
      I.make ~kind:I.Call ~taken:true ~target:0x1_0000_0000 ~addr:0 ~size:1 ()
    ];
  let edge =
    [ I.make ~kind:I.Call ~taken:true ~target:0xFFFF_FFFF ~addr:0xFFFF_FFFF
        ~size:4 () ]
  in
  Alcotest.(check bool) "0xFFFFFFFF survives" true
    (collect (P.replay (P.of_trace (Trace.of_list edge)))
     = List.map fields edge);
  let cap_msg = "Packed_trace.of_trace: chunk capacity outside 1..65536" in
  List.iter
    (fun cap ->
      Alcotest.check_raises "chunk capacity rejected"
        (Invalid_argument cap_msg) (fun () ->
          ignore (P.of_trace ~chunk_capacity:cap Trace.empty)))
    [ 0; 65537 ];
  ignore (P.of_trace ~chunk_capacity:65536 Trace.empty)

(* A real benchmark, long enough for several full chunks. *)
let real_capture () =
  W.Executor.packed (W.Executor.create ~insts:200_000 (W.Suites.find "CoMD"))

(* [byte_size] feeds the memo's byte budget and the bench's capture
   size, so it must match the heap the capture really holds. *)
let test_byte_size_honest () =
  let pt = real_capture () in
  let heap = 8 * Obj.reachable_words (Obj.repr pt) in
  let est = P.byte_size pt in
  if abs (est - heap) * 10 > heap then
    Alcotest.failf "byte_size %d vs reachable %d bytes" est heap;
  if est > 4 * P.length pt then
    Alcotest.failf "%d bytes for %d instructions (> 4 B/inst)" est
      (P.length pt)

(* Replay reuses one record: the minor heap must not grow with the
   stream, for the full replay and for both filtered ones. *)
let test_replay_allocation_free () =
  let pt = real_capture () in
  Alcotest.(check bool) "100k+ instructions" true (P.length pt >= 100_000);
  let sink = ref 0 in
  let consume (i : I.t) = sink := !sink + i.addr in
  List.iter
    (fun (name, replay) ->
      let before = Gc.minor_words () in
      replay pt consume;
      let words = Gc.minor_words () -. before in
      if words > 1000.0 then
        Alcotest.failf "%s allocated %.0f minor words" name words)
    [ ("replay", P.replay);
      ("replay_conditionals", P.replay_conditionals);
      ("replay_redirects", P.replay_redirects) ];
  ignore (Sys.opaque_identity !sink)

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
   from the packed capture, sequentially and in parallel, as from the
   stream. The stream reference is the production fallback: with the
   [trace.capture] fault site firing on every capture, each pass
   streams its trace instead. *)

let sweep_ids = C.Experiment.[ Fig5; Fig6; Fig7; Fig8; Fig9 ]

module T = Repro_util.Telemetry

let render ~jobs id =
  C.Experiment.clear_cache ();
  C.Report.run_to_string ~scale:0.02 ~jobs id

let streamed id =
  let was = T.enabled () in
  T.set_enabled true;
  Repro_util.Faults.configure (Some "trace.capture:1.0:1");
  let fallbacks0 = T.counter "experiment.capture_fallbacks" in
  Fun.protect
    ~finally:(fun () ->
      Repro_util.Faults.configure None;
      T.set_enabled was)
    (fun () ->
      let text = render ~jobs:1 id in
      Alcotest.(check bool) "reference streamed" true
        (T.counter "experiment.capture_fallbacks" > fallbacks0);
      text)

let test_sweeps_identical id () =
  C.Cache.set_enabled false;
  let reference = streamed id in
  Alcotest.(check string) "packed -j1 == streaming -j1" reference
    (render ~jobs:1 id);
  Alcotest.(check string) "packed -j4 == streaming -j1" reference
    (render ~jobs:4 id)

(* ------------------------------------------------------------------ *)
(* Static branch-prediction schemes (Always_taken / Always_not_taken /
   Btfn) on Bp_sweep's packed conditional fast path, which replays only
   the conditional branches and absorbs the instruction totals in
   bulk. The statics carry no state that warmup could train, so the
   packed counts must equal the streaming counts AND a direct recount
   over the raw list (warmup excluded). *)

let static_predicts s (i : I.t) =
  match s with
  | A.Bp_sweep.Always_taken -> true
  | A.Bp_sweep.Always_not_taken -> false
  | A.Bp_sweep.Btfn -> i.target < i.addr

let prop_static_engines =
  QCheck.Test.make ~name:"static engines: packed == stream == recount"
    ~count:150 with_chunks (fun (insts, cap) ->
      let statics = A.Bp_sweep.[ Always_taken; Always_not_taken; Btfn ] in
      let tr = Trace.of_list insts in
      let pt = P.of_trace ~chunk_capacity:cap tr in
      let run src =
        Array.to_list
          (A.Bp_sweep.run src
             (Array.of_list (List.map A.Bp_sweep.of_static statics)))
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
              A.Bp_sweep.insts st scope = want_insts
              && A.Bp_sweep.insts pk scope = want_insts
              && A.Bp_sweep.mispredictions st scope = want_miss
              && A.Bp_sweep.mispredictions pk scope = want_miss
              && A.Bp_sweep.conditional_branches st scope
                 = A.Bp_sweep.conditional_branches pk scope)
            scopes)
        statics
        (List.combine streamed packed))

(* ------------------------------------------------------------------ *)
(* The capture memo. A cold report captures each benchmark once and,
   with every capture inside the byte budget, never evicts; the
   counters are what make a thrashing memo visible. *)

let test_cold_report_captures () =
  C.Cache.set_enabled false;
  C.Experiment.clear_cache ();
  let was = T.enabled () in
  T.set_enabled true;
  let captures0 = T.counter "experiment.captures"
  and evictions0 = T.counter "experiment.capture_evictions" in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled was;
      C.Experiment.clear_cache ())
    (fun () -> ignore (C.Report.run_all_to_string ~scale:0.05 ~jobs:2 ()));
  Alcotest.(check int) "one capture per benchmark"
    (List.length W.Suites.all)
    (T.counter "experiment.captures" - captures0);
  Alcotest.(check int) "no evictions" 0
    (T.counter "experiment.capture_evictions" - evictions0)

(* Every scale-1.0 capture together fits the default 512 MiB budget
   at no more than 4 bytes per instruction. One capture is resident
   at a time. *)
let test_full_scale_budget () =
  let bytes, insts =
    List.fold_left
      (fun (bytes, insts) (p : W.Profile.t) ->
        let pt =
          W.Executor.packed
            (W.Executor.create ~insts:(max 50_000 p.total_insts) p)
        in
        (bytes + P.byte_size pt, insts + P.length pt))
      (0, 0) W.Suites.all
  in
  if bytes > 512 * 1024 * 1024 || bytes > 4 * insts then
    Alcotest.failf "%d bytes for %d instructions (%.2f B/inst)" bytes insts
      (float_of_int bytes /. float_of_int insts)

let () =
  Alcotest.run "packed"
    [ ("encoding",
       Qseed.all
         [ prop_replay_identity; prop_filtered_replays; prop_counted;
           prop_marshal_roundtrip; prop_realistic_roundtrip ]
       @ [ Alcotest.test_case "size validation" `Quick test_size_validation;
           Alcotest.test_case "column validation" `Quick
             test_column_validation;
           Alcotest.test_case "byte_size is the heap footprint" `Quick
             test_byte_size_honest;
           Alcotest.test_case "replay allocates nothing" `Quick
             test_replay_allocation_free ]);
      ("capture",
       [ Alcotest.test_case "executor capture" `Slow test_executor_capture ]);
      ("statics", Qseed.all [ prop_static_engines ]);
      ("sweeps",
       List.map
         (fun id ->
           Alcotest.test_case (C.Experiment.to_string id) `Slow
             (test_sweeps_identical id))
         sweep_ids);
      ("memoization",
       [ Alcotest.test_case "cold report: 41 captures, 0 evictions" `Slow
           test_cold_report_captures;
         Alcotest.test_case "scale-1.0 captures fit the budget" `Slow
           test_full_scale_budget ]) ]
