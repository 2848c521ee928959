type t = {
  entries : int;
  history : int;
  weights : int array array; (* [entry].[0] = bias, then one per bit *)
  hist : History.t;
  threshold : int;
  wmax : int;
  wmin : int;
}

(* The whole history is read as one packed word ([History.low_bits]),
   which holds at most 62 outcomes. *)
let max_history = 62

let create ?(entries = 128) ?(history = 24) () =
  if not (Repro_util.Units.is_power_of_two entries) then
    invalid_arg "Perceptron.create: entries";
  if history < 1 || history > max_history then
    invalid_arg "Perceptron.create: history";
  { entries;
    history;
    weights = Array.make_matrix entries (history + 1) 0;
    hist = History.create history;
    (* Jiménez's empirically-optimal threshold. *)
    threshold = int_of_float ((1.93 *. float_of_int history) +. 14.0);
    wmax = 127;
    wmin = -128 }

let index t pc = (pc lsr 1) land (t.entries - 1)

(* Dot product of [w] with the history word [h] (bit i = outcome i
   branches ago), taken = +1 and not taken = -1. *)
let output t w h =
  let sum = ref (Array.unsafe_get w 0) in
  for i = 0 to t.history - 1 do
    let wi = Array.unsafe_get w (i + 1) in
    if (h lsr i) land 1 = 1 then sum := !sum + wi else sum := !sum - wi
  done;
  !sum

let predict t ~pc =
  output t t.weights.(index t pc) (History.low_bits t.hist t.history) >= 0

let step t ~pc ~taken =
  let w = t.weights.(index t pc) in
  let h = History.low_bits t.hist t.history in
  let out = output t w h in
  let pred = out >= 0 in
  if pred <> taken || abs out <= t.threshold then begin
    let clamp v = if v > t.wmax then t.wmax else if v < t.wmin then t.wmin else v in
    let dir = if taken then 1 else -1 in
    w.(0) <- clamp (w.(0) + dir);
    for i = 0 to t.history - 1 do
      let x = if (h lsr i) land 1 = 1 then dir else -dir in
      Array.unsafe_set w (i + 1) (clamp (Array.unsafe_get w (i + 1) + x))
    done
  end;
  History.push t.hist taken;
  pred

let storage_bits t = t.entries * (t.history + 1) * 8

let pack ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "perceptron-%d" t.entries
  in
  Predictor.make ~name
    ~step:(fun pc taken -> step t ~pc ~taken)
    ~storage_bits:(storage_bits t)
