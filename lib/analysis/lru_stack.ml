(* Per set, [depth] slots of [keys] hold the set's keys most recent
   first; -1 marks an empty slot (keys are non-negative). A touch
   shifts the slots above the key's old position down by one and puts
   the key on top, so a miss drops the set's least recent key. *)
type t = {
  set_mask : int;
  depth : int;
  keys : int array; (* sets * depth *)
  vals : int array; (* parallel to [keys] when there is a payload *)
  hist : int array; (* rows * (depth + 1) *)
}

let create ?(payload = false) ~sets ~depth ~rows () =
  { set_mask = sets - 1;
    depth;
    keys = Array.make (sets * depth) (-1);
    vals = (if payload then Array.make (sets * depth) 0 else [||]);
    hist = Array.make (rows * (depth + 1)) 0 }

let touch t key =
  let keys = t.keys and depth = t.depth in
  let base = (key land t.set_mask) * depth in
  if Array.unsafe_get keys base = key then 0
  else begin
    let prev = ref (Array.unsafe_get keys base) in
    Array.unsafe_set keys base key;
    let i = ref (base + 1) and limit = base + depth in
    while !prev <> key && !prev <> -1 && !i < limit do
      let e = Array.unsafe_get keys !i in
      Array.unsafe_set keys !i !prev;
      prev := e;
      incr i
    done;
    if !prev = key then !i - base - 1 else depth
  end

let touch_target t key v =
  let keys = t.keys and vals = t.vals and depth = t.depth in
  let base = (key land t.set_mask) * depth in
  if Array.unsafe_get keys base = key then begin
    let stale = Array.unsafe_get vals base <> v in
    Array.unsafe_set vals base v;
    if stale then depth else 0
  end
  else begin
    let prev = ref (Array.unsafe_get keys base)
    and prev_v = ref (Array.unsafe_get vals base) in
    Array.unsafe_set keys base key;
    Array.unsafe_set vals base v;
    let i = ref (base + 1) and limit = base + depth in
    while !prev <> key && !prev <> -1 && !i < limit do
      let e = Array.unsafe_get keys !i and ev = Array.unsafe_get vals !i in
      Array.unsafe_set keys !i !prev;
      Array.unsafe_set vals !i !prev_v;
      prev := e;
      prev_v := ev;
      incr i
    done;
    if !prev = key && !prev_v = v then !i - base - 1 else depth
  end

let record t ~row d =
  let j = (row * (t.depth + 1)) + d in
  Array.unsafe_set t.hist j (Array.unsafe_get t.hist j + 1)

let misses t ~row ~assoc =
  let off = row * (t.depth + 1) in
  let n = ref 0 in
  for d = assoc to t.depth do
    n := !n + t.hist.(off + d)
  done;
  !n

let plan ?payload ~rows geometries =
  let counts = ref [] in
  let stack_of =
    Array.map
      (fun (sets, assoc) ->
        match List.assoc_opt sets !counts with
        | Some (s, depth) ->
            depth := max !depth assoc;
            s
        | None ->
            let s = List.length !counts in
            counts := (sets, (s, ref assoc)) :: !counts;
            s)
      geometries
  in
  let stacks =
    List.rev_map
      (fun (sets, (_, depth)) -> create ?payload ~sets ~depth:!depth ~rows ())
      !counts
  in
  (Array.of_list stacks, stack_of)
