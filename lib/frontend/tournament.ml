type t = {
  n : int;
  m : int;
  local_hist : int array; (* 2^n entries of m-bit local history *)
  local_pred : Counter.t; (* 2^n two-bit counters *)
  global_pred : Counter.t; (* 2^m two-bit counters *)
  choice : Counter.t; (* 2^m two-bit counters; taken = use global *)
  ghist : History.t;
}

let create ~addr_bits ~history_bits =
  if addr_bits < 2 || addr_bits > 20 then invalid_arg "Tournament.create";
  if history_bits < 2 || history_bits > 24 then invalid_arg "Tournament.create";
  { n = addr_bits;
    m = history_bits;
    local_hist = Array.make (1 lsl addr_bits) 0;
    local_pred = Counter.create ~bits:2 ~entries:(1 lsl addr_bits);
    global_pred = Counter.create ~bits:2 ~entries:(1 lsl history_bits);
    choice = Counter.create ~bits:2 ~entries:(1 lsl history_bits);
    ghist = History.create history_bits }

let local_slot t pc = (pc lsr 1) land ((1 lsl t.n) - 1)

(* The local counter is picked by the branch's own history pattern,
   folded with its address so distinct branches with equal histories
   do not fully alias. *)
let local_index t pc =
  let hist = t.local_hist.(local_slot t pc) in
  (hist lxor (pc lsr 1)) land ((1 lsl t.n) - 1)

let global_index t = History.low_bits t.ghist t.m

let predict t ~pc =
  let gi = global_index t in
  if Counter.is_taken t.choice gi then Counter.is_taken t.global_pred gi
  else Counter.is_taken t.local_pred (local_index t pc)

let step t ~pc ~taken =
  let gi = global_index t in
  let li = local_index t pc in
  let local_guess = Counter.is_taken t.local_pred li in
  let global_guess = Counter.is_taken t.global_pred gi in
  let pred = if Counter.is_taken t.choice gi then global_guess else local_guess in
  (* Train the choice only when the components disagree. *)
  if local_guess <> global_guess then
    Counter.update t.choice gi (global_guess = taken);
  Counter.update t.local_pred li taken;
  Counter.update t.global_pred gi taken;
  let slot = local_slot t pc in
  t.local_hist.(slot) <-
    ((t.local_hist.(slot) lsl 1) lor Bool.to_int taken) land ((1 lsl t.m) - 1);
  History.push t.ghist taken;
  pred

let storage_bits t =
  ((1 lsl t.n) * t.m)
  + Counter.storage_bits t.local_pred
  + Counter.storage_bits t.global_pred
  + Counter.storage_bits t.choice

let pack ~name t =
  Predictor.make ~name
    ~step:(fun pc taken -> step t ~pc ~taken)
    ~storage_bits:(storage_bits t)
