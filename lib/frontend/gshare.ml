type t = { m : int; table : Counter.t; hist : History.t }

let create ~history_bits =
  if history_bits < 2 || history_bits > 24 then invalid_arg "Gshare.create";
  { m = history_bits;
    table = Counter.create ~bits:2 ~entries:(1 lsl history_bits);
    hist = History.create history_bits }

let index t pc = (pc lsr 1) lxor History.low_bits t.hist t.m
let predict t ~pc = Counter.is_taken t.table (index t pc)

let step t ~pc ~taken =
  let i = index t pc in
  let pred = Counter.is_taken t.table i in
  Counter.update t.table i taken;
  History.push t.hist taken;
  pred

let storage_bits t = Counter.storage_bits t.table

let pack ~name t =
  Predictor.make ~name
    ~step:(fun pc taken -> step t ~pc ~taken)
    ~storage_bits:(storage_bits t)
