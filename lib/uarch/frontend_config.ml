type bp_kind =
  | Gshare of { history_bits : int }
  | Tournament of { addr_bits : int; history_bits : int }
  | Tage_small
  | Tage_big

type t = {
  icache_bytes : int;
  icache_line : int;
  icache_assoc : int;
  icache_repl : Repro_frontend.Replacement.spec;
  bp : bp_kind;
  bp_loop : bool;
  btb_entries : int;
  btb_assoc : int;
}

let baseline =
  { icache_bytes = 32 * 1024;
    icache_line = 64;
    icache_assoc = 4;
    icache_repl = Repro_frontend.Replacement.Lru;
    bp = Tournament { addr_bits = 12; history_bits = 14 };
    bp_loop = false;
    btb_entries = 2048;
    btb_assoc = 4 }

let tailored =
  { icache_bytes = 16 * 1024;
    icache_line = 128;
    icache_assoc = 8;
    icache_repl = Repro_frontend.Replacement.Lru;
    bp = Tournament { addr_bits = 10; history_bits = 8 };
    bp_loop = true;
    btb_entries = 256;
    btb_assoc = 8 }

(* The tailored core with learned I-cache replacement: same geometry,
   perceptron reuse/bypass instead of LRU — the fig10p design point
   probing whether the learned policy buys back the capacity the
   tailored core gave up. *)
let tailored_preuse =
  { tailored with icache_repl = Repro_frontend.Replacement.Preuse }

let bp_spec t =
  let core =
    match t.bp with
    | Gshare { history_bits } -> Repro_frontend.Zoo.Gshare_core { history_bits }
    | Tournament { addr_bits; history_bits } ->
        Repro_frontend.Zoo.Opaque
          (fun () ->
            Repro_frontend.Tournament.pack
              ~name:(Printf.sprintf "tournament-%d-%d" addr_bits history_bits)
              (Repro_frontend.Tournament.create ~addr_bits ~history_bits))
    | Tage_small -> Repro_frontend.Zoo.Opaque Repro_frontend.Zoo.tage_small
    | Tage_big -> Repro_frontend.Zoo.Opaque Repro_frontend.Zoo.tage_big
  in
  { Repro_frontend.Zoo.loop = t.bp_loop; core }

let make_bp t = Repro_frontend.Zoo.realize (bp_spec t)

let bp_bits t = (make_bp t).Repro_frontend.Predictor.storage_bits

let name t =
  Printf.sprintf "%s-I$/%dB%s %s%s BTB%d/%dw"
    (Repro_util.Units.pp_bytes t.icache_bytes)
    t.icache_line
    (match t.icache_repl with
    | Repro_frontend.Replacement.Lru -> ""
    | p -> "+" ^ Repro_frontend.Replacement.spec_to_string p)
    (match t.bp with
    | Gshare { history_bits } -> Printf.sprintf "gshare%d" history_bits
    | Tournament { addr_bits; history_bits } ->
        Printf.sprintf "tour%d.%d" addr_bits history_bits
    | Tage_small -> "tage-s"
    | Tage_big -> "tage-b")
    (if t.bp_loop then "+LBP" else "")
    t.btb_entries t.btb_assoc

let pp fmt t = Format.pp_print_string fmt (name t)
