(* Test oracle: the perceptron predictor as it stood before [step]
   fused prediction and training — the dot product is taken once in
   [predict] and again in [update], one history bit at a time. Kept
   verbatim apart from the history register, which is the naive
   {!Ref_history}, and the packer, which the differential test does
   not need. *)

module History = Ref_history

type t = {
  entries : int;
  history : int;
  weights : int array array; (* [entry].[0] = bias, then one per bit *)
  hist : History.t;
  threshold : int;
  wmax : int;
  wmin : int;
}

let create ?(entries = 128) ?(history = 24) () =
  if not (Repro_util.Units.is_power_of_two entries) then
    invalid_arg "Perceptron.create: entries";
  if history < 1 || history > 64 then invalid_arg "Perceptron.create: history";
  { entries;
    history;
    weights = Array.make_matrix entries (history + 1) 0;
    hist = History.create history;
    (* Jiménez's empirically-optimal threshold. *)
    threshold = int_of_float ((1.93 *. float_of_int history) +. 14.0);
    wmax = 127;
    wmin = -128 }

let index t pc = (pc lsr 1) land (t.entries - 1)

let output t pc =
  let w = t.weights.(index t pc) in
  let sum = ref w.(0) in
  for i = 0 to t.history - 1 do
    if History.bit t.hist i then sum := !sum + w.(i + 1)
    else sum := !sum - w.(i + 1)
  done;
  !sum

let predict t ~pc = output t pc >= 0

let update t ~pc ~taken =
  let out = output t pc in
  let pred = out >= 0 in
  if pred <> taken || abs out <= t.threshold then begin
    let w = t.weights.(index t pc) in
    let clamp v = if v > t.wmax then t.wmax else if v < t.wmin then t.wmin else v in
    let dir = if taken then 1 else -1 in
    w.(0) <- clamp (w.(0) + dir);
    for i = 0 to t.history - 1 do
      let x = if History.bit t.hist i then 1 else -1 in
      w.(i + 1) <- clamp (w.(i + 1) + (dir * x))
    done
  end;
  History.push t.hist taken

let storage_bits t = t.entries * (t.history + 1) * 8

