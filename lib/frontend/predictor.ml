type t = {
  name : string;
  step : int -> bool -> bool;
  storage_bits : int;
}

let make ~name ~step ~storage_bits = { name; step; storage_bits }

let storage_bytes t = (t.storage_bits + 7) / 8

let pp_cost fmt t =
  Format.fprintf fmt "%s (%s)" t.name
    (Repro_util.Units.pp_bytes (storage_bytes t))
