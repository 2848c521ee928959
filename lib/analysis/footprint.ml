module Inst = Repro_isa.Inst
module Section = Repro_isa.Section

(* Open-addressing table keyed by instruction address (linear probing,
   load at most 3/4). Slot [k] is the five ints at [slots.(5k ..)]:
   the address (-1 = empty), the encoded size, and the serial,
   parallel and warmup execution counts (warmup counts towards the
   static footprint only). A slot's fields sit next to each other, so
   a feed touches one place in memory. *)
type t = { mutable slots : int array; mutable used : int }

let stride = 5
let f_size = 1
let f_serial = 2
let f_parallel = 3
let f_warm = 4

(* A scale-0.05 benchmark touches up to ~46k distinct addresses; the
   table doubles whenever it fills past 3/4, so it stays smaller than
   the per-address records it replaces. *)
let initial_slots = 1 lsl 13

let create () =
  let slots = Array.make (stride * initial_slots) 0 in
  for k = 0 to initial_slots - 1 do
    slots.(stride * k) <- -1
  done;
  { slots; used = 0 }

let capacity t = Array.length t.slots / stride
let hash addr = (addr * 0x3E3779B97F4A7C15) lsr 17

(* Offset of the slot holding [addr], or of the empty slot where it
   belongs. *)
let find slots addr =
  let mask = (Array.length slots / stride) - 1 in
  let rec probe k =
    let o = stride * k in
    let key = Array.unsafe_get slots o in
    if key = addr || key = -1 then o else probe ((k + 1) land mask)
  in
  probe (hash addr land mask)

let grow t =
  let old = t.slots in
  let n = 2 * capacity t in
  let slots = Array.make (stride * n) 0 in
  for k = 0 to n - 1 do
    slots.(stride * k) <- -1
  done;
  for o = 0 to (Array.length old / stride) - 1 do
    let o = stride * o in
    if old.(o) <> -1 then Array.blit old o slots (find slots old.(o)) stride
  done;
  t.slots <- slots

let feed t (i : Inst.t) =
  let o = find t.slots i.addr in
  let o =
    if t.slots.(o) <> -1 then o
    else begin
      if 4 * (t.used + 1) > 3 * capacity t then grow t;
      let o = find t.slots i.addr in
      t.slots.(o) <- i.addr;
      t.slots.(o + f_size) <- i.size;
      t.used <- t.used + 1;
      o
    end
  in
  let j =
    if i.warmup then o + f_warm
    else
      match i.section with
      | Section.Serial -> o + f_serial
      | Section.Parallel -> o + f_parallel
  in
  t.slots.(j) <- t.slots.(j) + 1

let observer t = feed t

let count_in_scope s scope o =
  match scope with
  | Branch_mix.Total -> s.(o + f_serial) + s.(o + f_parallel)
  | Branch_mix.Only Section.Serial -> s.(o + f_serial)
  | Branch_mix.Only Section.Parallel -> s.(o + f_parallel)

(* Static footprint includes warmup-touched code (the code exists in
   the image and was executed), but only for the Total scope; section
   scopes reflect code executed inside that section. *)
let static_fold t scope f =
  let s = t.slots and acc = ref 0 in
  for k = 0 to capacity t - 1 do
    let o = stride * k in
    if s.(o) <> -1 then begin
      let n =
        count_in_scope s scope o
        + (match scope with Branch_mix.Total -> s.(o + f_warm) | Branch_mix.Only _ -> 0)
      in
      if n > 0 then acc := !acc + f o
    end
  done;
  !acc

let static_bytes t scope = static_fold t scope (fun o -> t.slots.(o + f_size))
let static_insts t scope = static_fold t scope (fun _ -> 1)

(* The bytes of the hottest instructions, taken hottest first and
   equal counts in address order, until they cover [coverage] of the
   dynamic instructions; the result is a function of the execution
   counts alone. The walk stops inside the group of cells whose count
   is [c], the largest count such that the cells counted at least [c]
   times reach the target: every hotter cell is taken, and only that
   group needs its address order. [c] is found by bisection over the
   counts, which costs a few linear passes instead of a sort. *)
let dynamic_bytes t scope ~coverage =
  assert (coverage >= 0.0 && coverage <= 1.0);
  let s = t.slots in
  let offs = Array.make t.used 0 and cnt = Array.make t.used 0 in
  let n = ref 0 and total = ref 0 and hottest = ref 0 in
  for k = 0 to capacity t - 1 do
    let o = stride * k in
    if s.(o) <> -1 then begin
      let c = count_in_scope s scope o in
      if c > 0 then begin
        offs.(!n) <- o;
        cnt.(!n) <- c;
        incr n;
        total := !total + c;
        hottest := max !hottest c
      end
    end
  done;
  let n = !n in
  let target = coverage *. float_of_int !total in
  let covered mass = float_of_int mass >= target in
  (* Mass of the cells counted at least [c] times. *)
  let mass_from c =
    let m = ref 0 in
    for i = 0 to n - 1 do
      let x = cnt.(i) in
      if x >= c then m := !m + x
    done;
    !m
  in
  (* Largest count in [lo, hi] whose [mass_from] covers the target;
     [mass_from 1] is the total, which always does. *)
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if covered (mass_from mid) then bisect mid hi else bisect lo (mid - 1)
  in
  if !total = 0 then 0
  else begin
    let c = bisect 1 !hottest in
    let bytes = ref 0 and mass = ref 0 and group = ref [] in
    for i = 0 to n - 1 do
      let o = offs.(i) in
      if cnt.(i) > c then begin
        bytes := !bytes + s.(o + f_size);
        mass := !mass + cnt.(i)
      end
      else if cnt.(i) = c then group := (s.(o), s.(o + f_size)) :: !group
    done;
    let rec take bytes mass = function
      | (_, size) :: rest when not (covered mass) -> take (bytes + size) (mass + c) rest
      | _ -> bytes
    in
    take !bytes !mass (List.sort (fun (a, _) (b, _) -> Int.compare a b) !group)
  end

type summary = {
  static_total : int;
  hot_total : int;
  hot_serial : int;
  hot_parallel : int;
}

let coverage = 0.99

let summarize t =
  let hot scope = dynamic_bytes t scope ~coverage in
  { static_total = static_bytes t Branch_mix.Total;
    hot_total = hot Branch_mix.Total;
    hot_serial = hot (Branch_mix.Only Section.Serial);
    hot_parallel = hot (Branch_mix.Only Section.Parallel) }

let hot_bytes s = function
  | Branch_mix.Total -> s.hot_total
  | Branch_mix.Only Section.Serial -> s.hot_serial
  | Branch_mix.Only Section.Parallel -> s.hot_parallel
