type t = {
  addr_bits : int;
  history : int;
  local_hist : int array;
  pattern : Counter.t;
}

let create ?(addr_bits = 10) ?(history = 10) () =
  if addr_bits < 1 || addr_bits > 20 then invalid_arg "Two_level.create";
  if history < 1 || history > 20 then invalid_arg "Two_level.create";
  { addr_bits;
    history;
    local_hist = Array.make (1 lsl addr_bits) 0;
    pattern = Counter.create ~bits:2 ~entries:(1 lsl history) }

let slot t pc = (pc lsr 1) land ((1 lsl t.addr_bits) - 1)
let predict t ~pc = Counter.is_taken t.pattern t.local_hist.(slot t pc)

let step t ~pc ~taken =
  let s = slot t pc in
  let h = t.local_hist.(s) in
  let pred = Counter.is_taken t.pattern h in
  Counter.update t.pattern h taken;
  t.local_hist.(s) <- ((h lsl 1) lor Bool.to_int taken) land ((1 lsl t.history) - 1);
  pred

let storage_bits t =
  ((1 lsl t.addr_bits) * t.history) + Counter.storage_bits t.pattern

let pack ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "two-level-%d.%d" t.addr_bits t.history
  in
  Predictor.make ~name
    ~step:(fun pc taken -> step t ~pc ~taken)
    ~storage_bits:(storage_bits t)
