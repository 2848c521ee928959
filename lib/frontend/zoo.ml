let gshare_small_bits = 13
let gshare_big_bits = 16

let gshare_small () =
  Gshare.pack ~name:"gshare-small" (Gshare.create ~history_bits:gshare_small_bits)

let gshare_big () =
  Gshare.pack ~name:"gshare-big" (Gshare.create ~history_bits:gshare_big_bits)

let tournament_small () =
  Tournament.pack ~name:"tournament-small"
    (Tournament.create ~addr_bits:10 ~history_bits:8)

let tournament_big () =
  Tournament.pack ~name:"tournament-big"
    (Tournament.create ~addr_bits:12 ~history_bits:14)

let tage_small () =
  let specs =
    [ { Tage.hist_len = 4; index_bits = 8; tag_bits = 9 };
      { Tage.hist_len = 16; index_bits = 8; tag_bits = 9 } ]
  in
  Tage.pack ~name:"tage-small" (Tage.create ~base_index_bits:12 specs)

let tage_big () =
  let specs =
    Tage.geometric_specs ~n_tables:12 ~min_hist:4 ~max_hist:640 ~index_bits:9
      ~tag_bits:11
  in
  Tage.pack ~name:"tage-big" (Tage.create ~base_index_bits:13 specs)

(* The perceptron family at the same 2KB / 16KB budget points as the
   table-based predictors: 8-bit weights, entries * (history + 1)
   bytes. *)
let perceptron_small () =
  Perceptron.pack ~name:"perceptron-small"
    (Perceptron.create ~entries:128 ~history:15 ())

let perceptron_big () =
  Perceptron.pack ~name:"perceptron-big"
    (Perceptron.create ~entries:512 ~history:31 ())

let with_loop base = Loop_predictor.combine (Loop_predictor.create ()) base

(* Declarative description of each base configuration. The gshare
   family is exposed by its parameters rather than as an opaque
   closure so fused sweeps (Repro_analysis.Bp_sweep) can share one
   global-history register across every gshare table; the other
   families stay opaque makers. *)
type core =
  | Gshare_core of { history_bits : int }
  | Opaque of (unit -> Predictor.t)

type spec = { loop : bool; core : core }

let base_cores =
  [ ("gshare-big", Gshare_core { history_bits = gshare_big_bits });
    ("tournament-big", Opaque tournament_big);
    ("tage-big", Opaque tage_big);
    ("perceptron-big", Opaque perceptron_big);
    ("gshare-small", Gshare_core { history_bits = gshare_small_bits });
    ("tournament-small", Opaque tournament_small);
    ("tage-small", Opaque tage_small);
    ("perceptron-small", Opaque perceptron_small) ]

let all_names =
  List.map fst base_cores
  @ [ "L-gshare-small"; "L-tournament-small"; "L-tage-small" ]

let perceptron () = Perceptron.pack (Perceptron.create ())
let two_level () = Two_level.pack (Two_level.create ())

let spec_by_name name =
  match List.assoc_opt name base_cores with
  | Some core -> { loop = false; core }
  | None ->
      (match String.index_opt name '-' with
      | Some 1 when String.length name > 2 && name.[0] = 'L' ->
          let base = String.sub name 2 (String.length name - 2) in
          (match List.assoc_opt base base_cores with
          | Some core -> { loop = true; core }
          | None -> raise Not_found)
      | Some _ | None -> raise Not_found)

let realize ?name s =
  let base =
    match s.core with
    | Gshare_core { history_bits } ->
        let name =
          match name with
          | Some n -> n
          | None -> Printf.sprintf "gshare-%d" history_bits
        in
        Gshare.pack ~name (Gshare.create ~history_bits)
    | Opaque mk -> mk ()
  in
  if s.loop then with_loop base else base

let by_name name =
  let s = spec_by_name name in
  let base_name =
    if s.loop then String.sub name 2 (String.length name - 2) else name
  in
  realize ~name:base_name s

let extension_makers =
  [ ("perceptron-128", perceptron); ("two-level-10.10", two_level) ]

let extended_names = all_names @ List.map fst extension_makers

let by_name_extended name =
  match List.assoc_opt name extension_makers with
  | Some mk -> mk ()
  | None -> by_name name
