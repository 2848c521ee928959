(* Unit and property tests for Repro_frontend: counters, histories,
   the predictor family, BTB and I-cache. *)

module F = Repro_frontend

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_init_weak_nt () =
  let c = F.Counter.create ~bits:2 ~entries:16 in
  Alcotest.(check bool) "init predicts not taken" false (F.Counter.is_taken c 3);
  Alcotest.(check int) "init value" 1 (F.Counter.get c 3)

let test_counter_saturate () =
  let c = F.Counter.create ~bits:2 ~entries:4 in
  for _ = 1 to 10 do F.Counter.update c 0 true done;
  Alcotest.(check int) "saturates high" 3 (F.Counter.get c 0);
  Alcotest.(check bool) "strong" true (F.Counter.is_strong c 0);
  for _ = 1 to 10 do F.Counter.update c 0 false done;
  Alcotest.(check int) "saturates low" 0 (F.Counter.get c 0)

let test_counter_hysteresis () =
  let c = F.Counter.create ~bits:2 ~entries:4 in
  F.Counter.update c 1 true;
  (* weak nt (1) -> weak taken (2) *)
  Alcotest.(check bool) "one update flips weak" true (F.Counter.is_taken c 1);
  F.Counter.update c 1 true;
  F.Counter.update c 1 false;
  Alcotest.(check bool) "strong resists one flip" true (F.Counter.is_taken c 1)

let test_counter_index_wraps () =
  let c = F.Counter.create ~bits:2 ~entries:8 in
  F.Counter.set c 2 3;
  Alcotest.(check int) "index masked" 3 (F.Counter.get c 10)

let test_counter_storage () =
  let c = F.Counter.create ~bits:2 ~entries:1024 in
  Alcotest.(check int) "2Kbit" 2048 (F.Counter.storage_bits c)

let test_counter_bad_entries () =
  Alcotest.check_raises "non pow2"
    (Invalid_argument "Counter.create: entries must be a power of two")
    (fun () -> ignore (F.Counter.create ~bits:2 ~entries:12))

(* ------------------------------------------------------------------ *)
(* History *)

let test_history_push_bit () =
  let h = F.History.create 8 in
  F.History.push h true;
  F.History.push h false;
  (* newest = false at index 0, then true *)
  Alcotest.(check bool) "bit 0" false (F.History.bit h 0);
  Alcotest.(check bool) "bit 1" true (F.History.bit h 1);
  Alcotest.(check bool) "out of range" false (F.History.bit h 100)

let test_history_low_bits () =
  let h = F.History.create 8 in
  List.iter (F.History.push h) [ true; true; false; true ];
  (* newest-first: T F T T -> bit0=1 bit1=0 bit2=1 bit3=1 = 0b1101 *)
  Alcotest.(check int) "packing" 0b1101 (F.History.low_bits h 4)

let test_history_wraparound () =
  let h = F.History.create 4 in
  for _ = 1 to 3 do F.History.push h false done;
  for _ = 1 to 4 do F.History.push h true done;
  Alcotest.(check int) "full window of ones" 0b1111 (F.History.low_bits h 4)

let test_history_clear () =
  let h = F.History.create 4 in
  F.History.push h true;
  F.History.clear h;
  Alcotest.(check int) "cleared" 0 (F.History.low_bits h 4)

(* ------------------------------------------------------------------ *)
(* Predictors: learning sanity *)

let drive predictor feed =
  (* returns error rate *)
  let miss = ref 0 and n = ref 0 in
  feed (fun pc taken ->
      incr n;
      if predictor.F.Predictor.step pc taken <> taken then incr miss);
  float_of_int !miss /. float_of_int (max 1 !n)

let always_taken f = for _ = 1 to 2000 do f 0x4000 true done

let loop_16 f =
  for _ = 1 to 200 do
    for i = 1 to 16 do f 0x4100 (i < 16) done
  done

let alternating f =
  let v = ref false in
  for _ = 1 to 2000 do
    v := not !v;
    f 0x4200 !v
  done

let check_lt name bound err =
  Alcotest.(check bool) (Printf.sprintf "%s err %.3f < %.3f" name err bound)
    true (err < bound)

let test_bimodal_biased () =
  let b = Bimodal.create ~index_bits:10 in
  check_lt "bimodal always-taken" 0.01 (drive (Bimodal.pack b) always_taken)

let test_gshare_patterns () =
  let g () = F.Gshare.pack ~name:"g" (F.Gshare.create ~history_bits:12) in
  check_lt "gshare always-taken" 0.01 (drive (g ()) always_taken);
  check_lt "gshare alternating" 0.01 (drive (g ()) alternating);
  check_lt "gshare loop-16" 0.08 (drive (g ()) loop_16)

let test_tournament_patterns () =
  let t () =
    F.Tournament.pack ~name:"t" (F.Tournament.create ~addr_bits:10 ~history_bits:10)
  in
  check_lt "tournament always-taken" 0.01 (drive (t ()) always_taken);
  check_lt "tournament alternating" 0.02 (drive (t ()) alternating);
  check_lt "tournament loop-16" 0.08 (drive (t ()) loop_16)

let test_tage_patterns () =
  let t () = F.Zoo.tage_small () in
  check_lt "tage always-taken" 0.01 (drive (t ()) always_taken);
  check_lt "tage alternating" 0.02 (drive (t ()) alternating);
  check_lt "tage loop-16" 0.08 (drive (t ()) loop_16)

let test_tage_long_history_beats_gshare_small () =
  (* Period-12 pattern whose 3-bit windows are ambiguous (the window
     TTT precedes both T and F outcomes), so a 3-bit-history gshare
     cannot separate them while TAGE's longer tagged histories can. *)
  let feed f =
    let pattern =
      [| true; true; true; false; true; true; true; true; false; false;
         true; false |]
    in
    for it = 0 to 4999 do
      f 0x5000 pattern.(it mod 12)
    done
  in
  let gshare_err =
    drive (F.Gshare.pack ~name:"g3" (F.Gshare.create ~history_bits:3)) feed
  in
  let tage_err = drive (F.Zoo.tage_big ()) feed in
  Alcotest.(check bool)
    (Printf.sprintf "tage (%.3f) beats short gshare (%.3f)" tage_err gshare_err)
    true
    (tage_err < gshare_err)

let test_loop_predictor_exact () =
  let lbp = F.Loop_predictor.create () in
  (* Constant trip count 12: after two full trips the LBP must predict
     the exit exactly. *)
  let miss_after_warm = ref 0 in
  for trip_no = 1 to 50 do
    for i = 1 to 12 do
      let actual = i < 12 in
      let pred = F.Loop_predictor.prediction lbp ~pc:0x6000 in
      if trip_no > 3 && pred >= 0 && (pred = 1) <> actual then
        incr miss_after_warm;
      F.Loop_predictor.update lbp ~pc:0x6000 ~taken:actual
    done
  done;
  Alcotest.(check int) "no misses once confident" 0 !miss_after_warm

let test_loop_predictor_combine_storage () =
  let base = F.Zoo.gshare_small () in
  let combined = F.Zoo.with_loop base in
  Alcotest.(check bool) "combined costs more" true
    (combined.F.Predictor.storage_bits > base.F.Predictor.storage_bits);
  Alcotest.(check string) "L- prefix" "L-gshare-small" combined.F.Predictor.name

let test_zoo_budgets () =
  (* Table II: smalls ~2KB, bigs ~16KB. *)
  let check name lo hi =
    let p = F.Zoo.by_name name in
    let kb = float_of_int (F.Predictor.storage_bytes p) /. 1024.0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s budget %.2fKB in [%g, %g]" name kb lo hi)
      true
      (kb >= lo && kb <= hi)
  in
  check "gshare-small" 1.8 2.2;
  check "gshare-big" 15.0 17.0;
  check "tournament-small" 1.2 2.2;
  check "tournament-big" 15.0 17.0;
  check "tage-small" 1.2 2.5;
  check "tage-big" 12.0 17.0;
  check "perceptron-small" 1.8 2.2;
  check "perceptron-big" 15.0 17.0;
  check "L-gshare-small" 2.1 2.8

let test_zoo_names () =
  Alcotest.(check int) "eleven configurations" 11 (List.length F.Zoo.all_names);
  List.iter
    (fun n ->
      let p = F.Zoo.by_name n in
      Alcotest.(check string) "name matches" n p.F.Predictor.name)
    F.Zoo.all_names;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (F.Zoo.by_name "perceptron"))

(* ------------------------------------------------------------------ *)
(* BTB *)

let test_btb_hit_after_insert () =
  let b = F.Btb.create ~entries:64 ~assoc:4 in
  Alcotest.(check (option int)) "cold miss" None (F.Btb.lookup b ~pc:0x4000);
  F.Btb.insert b ~pc:0x4000 ~target:0x5000;
  Alcotest.(check (option int)) "hit" (Some 0x5000) (F.Btb.lookup b ~pc:0x4000)

let test_btb_target_update () =
  let b = F.Btb.create ~entries:64 ~assoc:4 in
  F.Btb.insert b ~pc:0x4000 ~target:0x5000;
  F.Btb.insert b ~pc:0x4000 ~target:0x6000;
  Alcotest.(check (option int)) "updated" (Some 0x6000) (F.Btb.lookup b ~pc:0x4000)

let test_btb_conflict_eviction () =
  (* Direct-mapped: two addresses mapping to the same set evict each
     other. sets = 16 -> stride 16*2 bytes in pc>>1 space. *)
  let b = F.Btb.create ~entries:16 ~assoc:1 in
  let pc1 = 0x4000 and pc2 = 0x4000 + (16 * 2) in
  F.Btb.insert b ~pc:pc1 ~target:1;
  F.Btb.insert b ~pc:pc2 ~target:2;
  Alcotest.(check (option int)) "evicted" None (F.Btb.lookup b ~pc:pc1)

let test_btb_assoc_absorbs_conflict () =
  let b = F.Btb.create ~entries:16 ~assoc:2 in
  let pc1 = 0x4000 and pc2 = 0x4000 + (8 * 2) in
  F.Btb.insert b ~pc:pc1 ~target:1;
  F.Btb.insert b ~pc:pc2 ~target:2;
  Alcotest.(check (option int)) "both resident" (Some 1) (F.Btb.lookup b ~pc:pc1);
  Alcotest.(check (option int)) "both resident 2" (Some 2) (F.Btb.lookup b ~pc:pc2)

let test_btb_lru () =
  let b = F.Btb.create ~entries:4 ~assoc:2 in
  (* same set: stride sets*2 = 4 bytes in pc space *)
  let pc i = 0x4000 + (i * 2 * 2) in
  F.Btb.insert b ~pc:(pc 0) ~target:0;
  F.Btb.insert b ~pc:(pc 1) ~target:1;
  ignore (F.Btb.lookup b ~pc:(pc 0));
  (* touch 0 so 1 is LRU *)
  F.Btb.insert b ~pc:(pc 2) ~target:2;
  Alcotest.(check (option int)) "LRU victim evicted" None (F.Btb.lookup b ~pc:(pc 1));
  Alcotest.(check (option int)) "MRU kept" (Some 0) (F.Btb.lookup b ~pc:(pc 0))

(* ------------------------------------------------------------------ *)
(* I-cache *)

let test_icache_miss_then_hit () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  Alcotest.(check bool) "cold miss" false (F.Icache.access c ~addr:0x4000 ~size:4);
  Alcotest.(check bool) "then hit" true (F.Icache.access c ~addr:0x4004 ~size:4);
  Alcotest.(check int) "one miss" 1 (F.Icache.misses c);
  Alcotest.(check int) "two accesses" 2 (F.Icache.accesses c)

let test_icache_straddle () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  (* 8-byte instruction crossing a 64B boundary touches two lines. *)
  Alcotest.(check bool) "straddle misses" false
    (F.Icache.access c ~addr:(0x4000 + 60) ~size:8);
  Alcotest.(check int) "two line misses" 2 (F.Icache.misses c)

let test_icache_capacity_eviction () =
  let c = F.Icache.create ~size_bytes:256 ~line_bytes:64 ~assoc:1 () in
  (* 4 lines; fill 4 conflicting addresses in the same set. *)
  ignore (F.Icache.access c ~addr:0 ~size:4);
  ignore (F.Icache.access c ~addr:256 ~size:4);
  (* same set, evicts *)
  Alcotest.(check bool) "original evicted" false (F.Icache.access c ~addr:0 ~size:4)

let test_icache_usefulness () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  ignore (F.Icache.access c ~addr:0x4000 ~size:32);
  (* 32 of 64 bytes touched -> usefulness 0.5 *)
  Alcotest.(check (float 0.01)) "half used" 0.5 (F.Icache.usefulness c)

let test_icache_consume_marks () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  ignore (F.Icache.access c ~addr:0x4000 ~size:16);
  F.Icache.consume c ~addr:0x4010 ~size:48;
  Alcotest.(check (float 0.01)) "fully used" 1.0 (F.Icache.usefulness c);
  Alcotest.(check int) "consume is not an access" 1 (F.Icache.accesses c)

let test_icache_reset_stats () =
  let c = F.Icache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  ignore (F.Icache.access c ~addr:0 ~size:4);
  F.Icache.reset_stats c;
  Alcotest.(check int) "accesses reset" 0 (F.Icache.accesses c);
  Alcotest.(check int) "misses reset" 0 (F.Icache.misses c)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_counter_bounded =
  QCheck.Test.make ~name:"counter stays in range" ~count:200
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (bits, updates) ->
      let c = F.Counter.create ~bits ~entries:4 in
      List.iter (F.Counter.update c 0) updates;
      let v = F.Counter.get c 0 in
      v >= 0 && v < 1 lsl bits)

let prop_history_low_bits_match =
  QCheck.Test.make ~name:"history low_bits reflects pushes" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) bool)
    (fun pushes ->
      let h = F.History.create 32 in
      List.iter (F.History.push h) pushes;
      let n = List.length pushes in
      let expected =
        List.fold_left (fun acc b -> (acc lsl 1) lor Bool.to_int b) 0 pushes
      in
      F.History.low_bits h n = expected)

let prop_icache_hit_after_access =
  QCheck.Test.make ~name:"re-access of same address hits" ~count:200
    QCheck.(int_range 0 100_000)
    (fun addr ->
      let c = F.Icache.create ~size_bytes:4096 ~line_bytes:64 ~assoc:4 () in
      ignore (F.Icache.access c ~addr ~size:4);
      F.Icache.access c ~addr ~size:4)

let prop_folded_history_stable =
  QCheck.Test.make ~name:"History.folded is a pure function of contents"
    ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 40) bool) (int_range 2 12))
    (fun (pushes, out_bits) ->
      let h1 = F.History.create 64 and h2 = F.History.create 64 in
      List.iter (F.History.push h1) pushes;
      List.iter (F.History.push h2) pushes;
      F.History.folded h1 ~hist_len:24 ~out_bits
      = F.History.folded h2 ~hist_len:24 ~out_bits
      && F.History.folded h1 ~hist_len:24 ~out_bits < 1 lsl out_bits)

let prop_btb_roundtrip =
  QCheck.Test.make ~name:"btb lookup returns last insert" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (pc, target) ->
      let b = F.Btb.create ~entries:256 ~assoc:4 in
      F.Btb.insert b ~pc ~target;
      F.Btb.lookup b ~pc = Some target)

let qcheck tests = Qseed.all tests

let () =
  Alcotest.run "frontend"
    [ ("counter",
       [ Alcotest.test_case "init weak-nt" `Quick test_counter_init_weak_nt;
         Alcotest.test_case "saturate" `Quick test_counter_saturate;
         Alcotest.test_case "hysteresis" `Quick test_counter_hysteresis;
         Alcotest.test_case "index wraps" `Quick test_counter_index_wraps;
         Alcotest.test_case "storage" `Quick test_counter_storage;
         Alcotest.test_case "bad entries" `Quick test_counter_bad_entries ]);
      ("history",
       [ Alcotest.test_case "push/bit" `Quick test_history_push_bit;
         Alcotest.test_case "low_bits" `Quick test_history_low_bits;
         Alcotest.test_case "wraparound" `Quick test_history_wraparound;
         Alcotest.test_case "clear" `Quick test_history_clear ]);
      ("predictors",
       [ Alcotest.test_case "bimodal biased" `Quick test_bimodal_biased;
         Alcotest.test_case "gshare patterns" `Quick test_gshare_patterns;
         Alcotest.test_case "tournament patterns" `Quick test_tournament_patterns;
         Alcotest.test_case "tage patterns" `Quick test_tage_patterns;
         Alcotest.test_case "tage long history" `Quick
           test_tage_long_history_beats_gshare_small;
         Alcotest.test_case "loop predictor exact" `Quick test_loop_predictor_exact;
         Alcotest.test_case "loop combine storage" `Quick
           test_loop_predictor_combine_storage;
         Alcotest.test_case "zoo budgets (Table II)" `Quick test_zoo_budgets;
         Alcotest.test_case "zoo names" `Quick test_zoo_names ]);
      ("btb",
       [ Alcotest.test_case "hit after insert" `Quick test_btb_hit_after_insert;
         Alcotest.test_case "target update" `Quick test_btb_target_update;
         Alcotest.test_case "conflict eviction" `Quick test_btb_conflict_eviction;
         Alcotest.test_case "associativity" `Quick test_btb_assoc_absorbs_conflict;
         Alcotest.test_case "lru" `Quick test_btb_lru ]);
      ("icache",
       [ Alcotest.test_case "miss then hit" `Quick test_icache_miss_then_hit;
         Alcotest.test_case "straddle" `Quick test_icache_straddle;
         Alcotest.test_case "capacity eviction" `Quick test_icache_capacity_eviction;
         Alcotest.test_case "usefulness" `Quick test_icache_usefulness;
         Alcotest.test_case "consume" `Quick test_icache_consume_marks;
         Alcotest.test_case "reset stats" `Quick test_icache_reset_stats ]);
      ("properties",
       qcheck
         [ prop_counter_bounded; prop_history_low_bits_match;
           prop_folded_history_stable; prop_icache_hit_after_access;
           prop_btb_roundtrip ]) ]
