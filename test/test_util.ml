(* Unit and property tests for Repro_util. *)

module Rng = Repro_util.Rng
module Env = Repro_util.Env
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Units = Repro_util.Units

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy starts from same state" x y;
  ignore (Rng.bits64 a);
  let x2 = Rng.bits64 a and y2 = Rng.bits64 b in
  Alcotest.(check bool) "streams advance independently" true (x2 <> y2 || x2 = y2)

let test_rng_split () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "split streams differ" true (c1 <> p1)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 5 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close 0.02 "p=0.3 rate" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_geometric_mean () =
  let rng = Rng.create 6 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng 0.125
  done;
  (* mean of geometric(p) = 1/p = 8 *)
  check_close 0.3 "geometric mean" 8.0 (float_of_int !sum /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create 8 in
  let n = 100_000 in
  let acc = Stats.Acc.create () in
  for _ = 1 to n do
    Stats.Acc.add acc (Rng.gaussian rng)
  done;
  check_close 0.03 "mean ~0" 0.0 (Stats.Acc.mean acc);
  check_close 0.05 "std ~1" 1.0 (Stats.Acc.std_dev acc)

let test_rng_choose_weighted () =
  let rng = Rng.create 10 in
  let n = 30_000 in
  let counts = Array.make 2 0 in
  for _ = 1 to n do
    let i = Rng.choose_weighted rng [| (3.0, 0); (1.0, 1) |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.03 "3:1 weighting" 0.75
    (float_of_int counts.(0) /. float_of_int n)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)

let test_acc_basic () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Acc.count acc);
  check_float "mean" 2.5 (Stats.Acc.mean acc);
  check_float "sum" 10.0 (Stats.Acc.sum acc);
  check_float "min" 1.0 (Stats.Acc.min acc);
  check_float "max" 4.0 (Stats.Acc.max acc);
  check_close 1e-9 "variance" 1.25 (Stats.Acc.variance acc)

let test_acc_empty_mean_nan () =
  let acc = Stats.Acc.create () in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.Acc.mean acc))

let test_acc_weighted () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add_weighted acc ~weight:3.0 10.0;
  Stats.Acc.add_weighted acc ~weight:1.0 20.0;
  check_float "weighted mean" 12.5 (Stats.Acc.mean acc)

let test_mean_geomean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_close 1e-9 "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.mean []))

let test_weighted_mean () =
  check_float "weighted" 1.75 (Stats.weighted_mean [ (3.0, 1.0); (1.0, 4.0) ])

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.median a);
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p100" 5.0 (Stats.percentile a 100.0);
  check_float "p25" 2.0 (Stats.percentile a 25.0)

let test_percentile_empty () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0))

(* Float.compare is a total order with every NaN below every number,
   so NaN-containing arrays have pinned, input-order-independent
   percentiles: NaN at the low end, finite values above. *)
let test_percentile_nan () =
  let check_arr label a =
    Alcotest.(check bool)
      (label ^ " p0 nan") true
      (Float.is_nan (Stats.percentile a 0.0));
    check_float (label ^ " p100") 3.0 (Stats.percentile a 100.0);
    (* sorted [nan; 1; 2; 3]: rank 1.5 interpolates 1 and 2 *)
    check_float (label ^ " p50") 1.5 (Stats.percentile a 50.0)
  in
  check_arr "nan first" [| nan; 1.0; 2.0; 3.0 |];
  check_arr "nan last" [| 3.0; 1.0; 2.0; nan |];
  Alcotest.(check bool)
    "all-nan median" true
    (Float.is_nan (Stats.median [| nan; nan |]))

let test_percentiles_many () =
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (list (float 1e-9)))
    "one sort, many ranks" [ 1.0; 3.0; 5.0 ]
    (Stats.percentiles a [ 0.0; 50.0; 100.0 ]);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentiles: empty array") (fun () ->
      ignore (Stats.percentiles [||] [ 50.0 ]))

(* Env: the shared warn-once clamp helper behind every REPRO_* knob.
   Warnings go to stderr (not asserted here); the values are. *)
let test_env_int_clamped () =
  let get () = Env.int_clamped ~name:"T_ENV_INT" ~min:1 ~max:64 () in
  Alcotest.(check (option int)) "unset" None (get ());
  Unix.putenv "T_ENV_INT" "12";
  Alcotest.(check (option int)) "in range" (Some 12) (get ());
  Unix.putenv "T_ENV_INT" "999";
  Alcotest.(check (option int)) "clamps high" (Some 64) (get ());
  Unix.putenv "T_ENV_INT" "-3";
  Alcotest.(check (option int)) "clamps low" (Some 1) (get ());
  Unix.putenv "T_ENV_INT" "zork";
  Alcotest.(check (option int)) "malformed" None (get ())

let test_env_float_clamped () =
  let get () = Env.float_clamped ~name:"T_ENV_FLOAT" ~min:0.01 ~max:1.0 () in
  Unix.putenv "T_ENV_FLOAT" "0.5";
  Alcotest.(check (option (float 1e-9))) "in range" (Some 0.5) (get ());
  Unix.putenv "T_ENV_FLOAT" "7";
  Alcotest.(check (option (float 1e-9))) "clamps" (Some 1.0) (get ());
  Unix.putenv "T_ENV_FLOAT" "nan";
  Alcotest.(check (option (float 1e-9))) "nan rejected" None (get ());
  Unix.putenv "T_ENV_FLOAT" "inf";
  Alcotest.(check (option (float 1e-9))) "inf rejected" None (get ())

let test_env_float_positive () =
  let get () = Env.float_positive ~name:"T_ENV_SCALE" ~default:1.0 () in
  Alcotest.(check (float 1e-9)) "unset" 1.0 (get ());
  Unix.putenv "T_ENV_SCALE" "0.25";
  Alcotest.(check (float 1e-9)) "positive" 0.25 (get ());
  List.iter
    (fun bad ->
      Unix.putenv "T_ENV_SCALE" bad;
      Alcotest.(check (float 1e-9)) (bad ^ " rejected") 1.0 (get ()))
    [ "0"; "-2"; "nan"; "inf"; "fast" ]

let test_env_flag () =
  let get () = Env.flag ~name:"T_ENV_FLAG" ~default:true in
  Alcotest.(check bool) "unset" true (get ());
  Unix.putenv "T_ENV_FLAG" "off";
  Alcotest.(check bool) "off" false (get ());
  Unix.putenv "T_ENV_FLAG" "ON";
  Alcotest.(check bool) "ON" true (get ());
  Unix.putenv "T_ENV_FLAG" "junk";
  Alcotest.(check bool) "junk keeps default" true (get ())

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h 9.5;
  Stats.Histogram.add h ~weight:2.0 5.0;
  Stats.Histogram.add h (-1.0);
  Stats.Histogram.add h 11.0;
  check_float "total" 6.0 (Stats.Histogram.total h);
  check_float "underflow" 1.0 (Stats.Histogram.bin_weight h 0);
  check_float "overflow" 1.0 (Stats.Histogram.bin_weight h 11);
  check_float "bin of 5.0" 2.0 (Stats.Histogram.bin_weight h 6)

(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains padded short row" true (contains s "yy");
  Alcotest.(check bool) "contains header" true (contains s "| a")

let test_table_trailing_separator () =
  let t = Table.create [ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_separator t;
  Table.add_row t [ "y" ];
  Table.add_separator t;
  Alcotest.(check string) "inner rule kept, trailing one dropped"
    "+---+\n| a |\n+---+\n| x |\n+---+\n| y |\n+---+\n" (Table.render t)

let test_table_too_many_cells () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "too many"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_formats () =
  Alcotest.(check string) "float" "1.23" (Table.fmt_float 1.234);
  Alcotest.(check string) "nan" "-" (Table.fmt_float nan);
  Alcotest.(check string) "pct" "12.3%" (Table.fmt_pct 0.1234);
  Alcotest.(check string) "ratio" "1.50x" (Table.fmt_ratio 1.5)

let test_units () =
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check string) "bytes" "512B" (Units.pp_bytes 512);
  Alcotest.(check string) "kb" "16KB" (Units.pp_bytes 16384);
  Alcotest.(check string) "frac kb" "1.5KB" (Units.pp_bytes 1536);
  Alcotest.(check bool) "pow2" true (Units.is_power_of_two 64);
  Alcotest.(check bool) "not pow2" false (Units.is_power_of_two 48);
  Alcotest.(check int) "log2" 6 (Units.log2 64);
  Alcotest.(check int) "roundup" 64 (Units.round_up_pow2 33)

let test_units_log2_invalid () =
  Alcotest.check_raises "log2 non-pow2"
    (Invalid_argument "Units.log2: not a power of two") (fun () ->
      ignore (Units.log2 12))

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list (List.map Float.abs xs) in
      Array.length a = 0
      ||
      let v = Stats.percentile a p in
      let lo = Array.fold_left Float.min infinity a in
      let hi = Array.fold_left Float.max neg_infinity a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_histogram_mass =
  QCheck.Test.make ~name:"histogram conserves mass" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_bound_inclusive 20.0))
    (fun xs ->
      let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
      List.iter (Stats.Histogram.add h) xs;
      Float.abs (Stats.Histogram.total h -. float_of_int (List.length xs))
      < 1e-9)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_roundup_pow2 =
  QCheck.Test.make ~name:"round_up_pow2 is a bounding power" ~count:200
    QCheck.(int_range 1 (1 lsl 20))
    (fun n ->
      let p = Units.round_up_pow2 n in
      Units.is_power_of_two p && p >= n && (p = 1 || p / 2 < n))

(* ------------------------------------------------------------------ *)
(* Json: the bench emitter/validator pair must round-trip. *)

(* ------------------------------------------------------------------ *)
(* Backoff: the server client's connect-retry schedule. *)

module Backoff = Repro_util.Backoff

let test_backoff_deterministic () =
  let seq seed =
    let b = Backoff.create ~seed () in
    List.init 12 (fun _ -> Backoff.delay_ms b)
  in
  Alcotest.(check (list (float 1e-9))) "same seed, same delays"
    (seq 42) (seq 42);
  Alcotest.(check bool) "different seed, different delays" true
    (seq 1 <> seq 2)

let test_backoff_growth_and_cap () =
  (* Jitter off: the raw geometric schedule is exact — doubling from
     the base until it saturates at the cap. *)
  let b = Backoff.create ~base_ms:10.0 ~max_ms:100.0 ~jitter:0.0 () in
  let ds = List.init 8 (fun _ -> Backoff.delay_ms b) in
  Alcotest.(check (list (float 1e-9))) "doubles then saturates"
    [ 10.; 20.; 40.; 80.; 100.; 100.; 100.; 100. ]
    ds

let test_backoff_jitter_bounded () =
  let b = Backoff.create ~base_ms:10.0 ~max_ms:1000.0 ~jitter:0.5 ~seed:7 () in
  let ds = List.init 20 (fun _ -> Backoff.delay_ms b) in
  List.iter
    (fun d ->
      if d < 10.0 || d > 1000.0 then
        Alcotest.failf "delay %g outside [base, max]" d)
    ds;
  (* With jitter on, consecutive runs of the exponent must not all
     land exactly on the raw schedule. *)
  Alcotest.(check bool) "jitter moved at least one delay" true
    (List.exists
       (fun d -> List.for_all (fun r -> Float.abs (d -. r) > 1e-9)
           [ 10.; 20.; 40.; 80.; 160.; 320.; 640.; 1000. ])
       ds)

let test_backoff_reset () =
  let b = Backoff.create ~base_ms:10.0 ~max_ms:100.0 ~jitter:0.0 () in
  ignore (Backoff.delay_ms b);
  ignore (Backoff.delay_ms b);
  Alcotest.(check int) "attempts counted" 2 (Backoff.attempts b);
  Backoff.reset b;
  Alcotest.(check int) "attempts reset" 0 (Backoff.attempts b);
  Alcotest.(check (float 1e-9)) "back to base" 10.0 (Backoff.delay_ms b)

module Json = Repro_util.Json

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("schema_version", Json.Num 1.0);
        ("name", Json.Str "fig8 \"quoted\" \\ tab\there");
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.Arr [ Json.Num 0.5; Json.Num (-3.0); Json.Num 1e9 ]);
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []) ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
  | Error e -> Alcotest.failf "emitted JSON failed to parse: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1, 2"; "{\"a\": }"; "tru"; "{\"a\": 1} trailing"; "nan";
      "\"unterminated" ]

let test_json_accessors () =
  match Json.of_string "{\"a\": 3.5, \"b\": [null, \"x\"]}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
      Alcotest.(check (option (float 1e-9))) "member+number" (Some 3.5)
        (Option.bind (Json.member "a" doc) Json.number);
      Alcotest.(check bool) "missing member" true (Json.member "z" doc = None);
      Alcotest.(check bool) "number of non-num" true
        (Json.number (Json.Str "x") = None)

let test_json_nonfinite_numbers () =
  (* JSON has no NaN/inf: they must render as null, not break parsing. *)
  let s = Json.to_string (Json.Arr [ Json.Num Float.nan; Json.Num Float.infinity ]) in
  match Json.of_string s with
  | Ok (Json.Arr [ Json.Null; Json.Null ]) -> ()
  | Ok _ -> Alcotest.fail "non-finite numbers not nulled"
  | Error e -> Alcotest.failf "emitted JSON failed to parse: %s" e

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"Json string escape round-trips" ~count:300
    QCheck.(string_of Gen.printable)
    (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | Ok _ | Error _ -> false)

let qcheck tests = Qseed.all tests

let () =
  Alcotest.run "util"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
         Alcotest.test_case "copy" `Quick test_rng_copy_independent;
         Alcotest.test_case "split" `Quick test_rng_split;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
         Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
         Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
         Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
         Alcotest.test_case "choose_weighted" `Quick test_rng_choose_weighted;
         Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation ]);
      ("stats",
       [ Alcotest.test_case "acc basic" `Quick test_acc_basic;
         Alcotest.test_case "acc empty" `Quick test_acc_empty_mean_nan;
         Alcotest.test_case "acc weighted" `Quick test_acc_weighted;
         Alcotest.test_case "mean/geomean" `Quick test_mean_geomean;
         Alcotest.test_case "weighted mean" `Quick test_weighted_mean;
         Alcotest.test_case "percentile" `Quick test_percentile;
         Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
         Alcotest.test_case "percentile nan order" `Quick test_percentile_nan;
         Alcotest.test_case "percentiles one-sort" `Quick test_percentiles_many;
         Alcotest.test_case "histogram" `Quick test_histogram ]);
      ("env",
       [ Alcotest.test_case "int clamped" `Quick test_env_int_clamped;
         Alcotest.test_case "float clamped" `Quick test_env_float_clamped;
         Alcotest.test_case "float positive" `Quick test_env_float_positive;
         Alcotest.test_case "flag" `Quick test_env_flag ]);
      ("table",
       [ Alcotest.test_case "render" `Quick test_table_render;
         Alcotest.test_case "trailing separator" `Quick
           test_table_trailing_separator;
         Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
         Alcotest.test_case "formats" `Quick test_table_formats ]);
      ("units",
       [ Alcotest.test_case "conversions" `Quick test_units;
         Alcotest.test_case "log2 invalid" `Quick test_units_log2_invalid ]);
      ("backoff",
       [ Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
         Alcotest.test_case "growth and cap" `Quick
           test_backoff_growth_and_cap;
         Alcotest.test_case "jitter bounded" `Quick
           test_backoff_jitter_bounded;
         Alcotest.test_case "reset" `Quick test_backoff_reset ]);
      ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
         Alcotest.test_case "accessors" `Quick test_json_accessors;
         Alcotest.test_case "non-finite numbers" `Quick
           test_json_nonfinite_numbers ]);
      ("properties",
       qcheck
         [ prop_percentile_bounded; prop_histogram_mass; prop_rng_int_range;
           prop_roundup_pow2; prop_json_string_roundtrip ]) ]
