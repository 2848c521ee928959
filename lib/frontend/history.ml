(* Circular bit buffer; head points at the slot of the most recent
   outcome. A packed shadow register mirrors the newest outcomes so
   [low_bits] is one mask and [bit] below 62 is one shift; older bits
   come from the buffer. Neither path divides. *)
type t = {
  len : int;
  buf : Bytes.t;
  mutable head : int;
  reg_mask : int; (* covers min len 62 bits *)
  mutable reg : int; (* newest outcome at bit 0 *)
}

let reg_bits len = min len 62

let create len =
  if len < 1 || len > 1024 then invalid_arg "History.create";
  { len;
    buf = Bytes.make len '\000';
    head = 0;
    reg_mask = (1 lsl reg_bits len) - 1;
    reg = 0 }

let length t = t.len

let push t taken =
  t.head <- (if t.head = 0 then t.len - 1 else t.head - 1);
  Bytes.unsafe_set t.buf t.head (if taken then '\001' else '\000');
  t.reg <- ((t.reg lsl 1) lor (if taken then 1 else 0)) land t.reg_mask

let bit t i =
  if i < 0 || i >= t.len then false
  else if i < 62 then (t.reg lsr i) land 1 = 1
  else
    let j = t.head + i in
    Bytes.unsafe_get t.buf (if j >= t.len then j - t.len else j) = '\001'

let low_bits t n =
  if n > 62 then invalid_arg "History.low_bits: too wide";
  let n = min n t.len in
  t.reg land ((1 lsl n) - 1)

let folded t ~hist_len ~out_bits =
  assert (out_bits > 0 && out_bits <= 30);
  let hist_len = min hist_len t.len in
  let acc = ref 0 in
  for i = 0 to hist_len - 1 do
    if bit t i then begin
      let pos = i mod out_bits in
      acc := !acc lxor (1 lsl pos)
    end
  done;
  !acc

let clear t =
  Bytes.fill t.buf 0 t.len '\000';
  t.head <- 0;
  t.reg <- 0
