type way = { mutable tag : int; mutable target : int; mutable lru : int }
(* tag = -1 when invalid *)

type t = {
  sets : int;
  assoc : int;
  set_shift : int; (* log2 sets: (pc lsr 1) -> tag *)
  ways : way array array;
  mutable clock : int;
}

let geometry ~entries ~assoc =
  if not (Repro_util.Units.is_power_of_two entries) then
    invalid_arg "Btb.create: entries";
  if not (Repro_util.Units.is_power_of_two assoc) || assoc > entries then
    invalid_arg "Btb.create: assoc";
  entries / assoc

let create ~entries ~assoc =
  let sets = geometry ~entries ~assoc in
  { sets;
    assoc;
    set_shift = Repro_util.Units.log2 sets;
    ways =
      Array.init sets (fun _ ->
          Array.init assoc (fun _ -> { tag = -1; target = 0; lru = 0 }));
    clock = 0 }

let entries t = t.sets * t.assoc
let assoc t = t.assoc
let sets t = t.sets

let set_of t ~pc = (pc lsr 1) land (t.sets - 1)
(* lsr is right-associative: without the parentheses this would
   compute [pc lsr (1 lsr log2 sets)] = [pc] for any multi-set
   geometry, silently widening the tag by the set-index bits the
   storage accounting below assumes are dropped. *)
let tag_of t ~pc = (pc lsr 1) lsr t.set_shift

let touch t way =
  t.clock <- t.clock + 1;
  way.lru <- t.clock

let lookup t ~pc =
  let set = t.ways.(set_of t ~pc) and tag = tag_of t ~pc in
  let rec go i =
    if i = t.assoc then None
    else if set.(i).tag = tag then begin
      touch t set.(i);
      Some set.(i).target
    end
    else go (i + 1)
  in
  go 0

let insert t ~pc ~target =
  let set = t.ways.(set_of t ~pc) and tag = tag_of t ~pc in
  let rec find i = if i = t.assoc then None
    else if set.(i).tag = tag then Some set.(i) else find (i + 1)
  in
  let victim () =
    let best = ref set.(0) in
    for i = 1 to t.assoc - 1 do
      if set.(i).tag = -1 && !best.tag <> -1 then best := set.(i)
      else if set.(i).lru < !best.lru && !best.tag <> -1 then best := set.(i)
    done;
    !best
  in
  let way = match find 0 with Some w -> w | None -> victim () in
  way.tag <- tag;
  way.target <- target;
  touch t way

(* 48-bit VA: tag bits + target payload (compressed to 32 bits as in
   real BTBs) + LRU bits. *)
let storage_bits t =
  let tag_bits = 48 - 1 - t.set_shift in
  entries t * (tag_bits + 32 + Repro_util.Units.log2 (max 2 t.assoc))
