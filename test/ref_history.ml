(* Test oracle for [Repro_frontend.History]: the last [len] outcomes as
   a plain list, newest first. Nothing is packed, nothing wraps. *)

type t = { len : int; mutable bits : bool list }

let create len = { len; bits = [] }
let length t = t.len

let push t taken =
  t.bits <- List.filteri (fun i _ -> i < t.len) (taken :: t.bits)

let bit t i =
  i >= 0 && i < t.len
  && match List.nth_opt t.bits i with Some b -> b | None -> false

let low_bits t n =
  let acc = ref 0 in
  for i = min n t.len - 1 downto 0 do
    acc := (!acc lsl 1) lor Bool.to_int (bit t i)
  done;
  !acc
