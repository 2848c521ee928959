(* Way state lives in flat structure-of-arrays storage, indexed by
   [set * assoc + way]: the simulators hit [access] tens of millions
   of times per sweep, and chasing a per-way record through two array
   indirections dominated the fused-kernel profile. [tags.(i) = -1]
   marks an invalid way. *)
type t = {
  size : int;
  line : int;
  assoc : int;
  sets : int;
  line_shift : int; (* log2 line: byte address -> line address *)
  set_shift : int; (* log2 sets: line address -> tag *)
  tags : int array; (* sets * assoc; -1 invalid *)
  lru : int array;
  touched : int array; (* bitmask of consumed 4-byte granules *)
  prefetched : Bytes.t; (* '\001' = filled by the prefetcher *)
  granules : int;
  prefetch : bool;
  policy : Replacement.t;
  preuse : bool; (* policy <> Lru: guards the hot-path hook calls *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable prefetches : int;
  mutable useful_prefetches : int;
  mutable useful_sum : float; (* accumulated usefulness of evicted lines *)
  mutable filled : int; (* lines ever filled *)
  mutable cc_line : int; (* line of the most recent lookup; -1 = none *)
  mutable cc_idx : int; (* its flat way index — valid only while the tag matches *)
}

let geometry ~size_bytes ~line_bytes ~assoc =
  let open Repro_util.Units in
  if not (is_power_of_two size_bytes && is_power_of_two line_bytes
          && is_power_of_two assoc) then
    invalid_arg "Icache.create: sizes must be powers of two";
  if line_bytes < 4 then invalid_arg "Icache.create: line too narrow";
  let lines = size_bytes / line_bytes in
  if assoc > lines then invalid_arg "Icache.create: assoc too high";
  lines / assoc

let create ?(next_line_prefetch = false) ?(policy = Replacement.Lru)
    ~size_bytes ~line_bytes ~assoc () =
  let sets = geometry ~size_bytes ~line_bytes ~assoc in
  let lines = sets * assoc in
  { size = size_bytes;
    line = line_bytes;
    assoc;
    sets;
    line_shift = Repro_util.Units.log2 line_bytes;
    set_shift = Repro_util.Units.log2 sets;
    tags = Array.make lines (-1);
    lru = Array.make lines 0;
    touched = Array.make lines 0;
    prefetched = Bytes.make lines '\000';
    granules = line_bytes / 4;
    prefetch = next_line_prefetch;
    policy = Replacement.create policy ~assoc ~ways:lines;
    preuse = policy <> Replacement.Lru;
    clock = 0;
    accesses = 0;
    misses = 0;
    prefetches = 0;
    useful_prefetches = 0;
    useful_sum = 0.0;
    filled = 0;
    cc_line = -1;
    cc_idx = -1 }

let size_bytes t = t.size
let line_bytes t = t.line
let assoc t = t.assoc
let policy t = Replacement.spec t.policy

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let way_usefulness t i =
  float_of_int (popcount t.touched.(i)) /. float_of_int t.granules

(* Granule bitmask of [size] bytes at [offset] within a line; the
   clamp mirrors the historical per-granule loop's upper bound. *)
let gmask_of t ~offset ~size =
  let g0 = offset / 4 and g1 = min ((offset + size - 1) / 4) (t.granules - 1) in
  ((1 lsl (g1 - g0 + 1)) - 1) lsl g0

(* Victim selection is the policy's call ({!Replacement.victim}):
   first invalid way wins for every policy, then LRU picks the lowest
   stamp (ties keep the lowest way index) and Preuse prefers
   predicted-dead ways. *)
let pick_victim t base = Replacement.victim t.policy ~tags:t.tags ~lru:t.lru ~base

let rec find_way t base tag i =
  if i = t.assoc then -1
  else if Array.unsafe_get t.tags (base + i) = tag then base + i
  else find_way t base tag (i + 1)

(* Fill [line_addr] without counting a demand access; used by the
   next-line prefetcher. Does nothing if already resident. *)
let prefetch_line t line_addr =
  let set = line_addr land (t.sets - 1) in
  let base = set * t.assoc in
  let tag = line_addr lsr t.set_shift in
  if find_way t base tag 0 = -1 then begin
    (* Prefetch fills predict and record like demand fills but never
       bypass, and do not enter the demand-line history. *)
    if t.preuse then ignore (Replacement.prepare t.policy ~set ~line:line_addr);
    let victim = pick_victim t base in
    let evicted = t.tags.(victim) <> -1 in
    if evicted then t.useful_sum <- t.useful_sum +. way_usefulness t victim;
    t.tags.(victim) <- tag;
    t.touched.(victim) <- 0;
    Bytes.unsafe_set t.prefetched victim '\001';
    t.filled <- t.filled + 1;
    t.prefetches <- t.prefetches + 1;
    t.clock <- t.clock + 1;
    t.lru.(victim) <- t.clock;
    if t.preuse then Replacement.on_fill t.policy ~way:victim ~set ~evicted
  end

let rec access_line t ~line ~gmask =
  if line = t.cc_line
     && Array.unsafe_get t.tags t.cc_idx = line lsr t.set_shift then begin
    (* Re-accessing the line of the most recent lookup, whose way
       still holds the tag: nothing but consumes can have run since
       (any access moves [cc]; prefetches only fire inside one), so
       the way is resident with its prefetched flag already cleared —
       skip the way search. *)
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru t.cc_idx t.clock;
    Array.unsafe_set t.touched t.cc_idx
      (Array.unsafe_get t.touched t.cc_idx lor gmask);
    if t.preuse then begin
      Replacement.on_hit t.policy ~way:t.cc_idx ~set:(line land (t.sets - 1))
        ~line;
      Replacement.note_access t.policy ~line
    end;
    true
  end
  else access_line_slow t ~line ~gmask

and access_line_slow t ~line ~gmask =
  let set = line land (t.sets - 1) in
  let base = set * t.assoc in
  let tag = line lsr t.set_shift in
  t.accesses <- t.accesses + 1;
  let i = find_way t base tag 0 in
  if i >= 0 then begin
    if Bytes.unsafe_get t.prefetched i <> '\000' then begin
      Bytes.unsafe_set t.prefetched i '\000';
      t.useful_prefetches <- t.useful_prefetches + 1
    end;
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru i t.clock;
    Array.unsafe_set t.touched i (Array.unsafe_get t.touched i lor gmask);
    t.cc_line <- line;
    t.cc_idx <- i;
    if t.preuse then begin
      Replacement.on_hit t.policy ~way:i ~set ~line;
      Replacement.note_access t.policy ~line
    end;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    if t.preuse && Replacement.prepare t.policy ~set ~line then begin
      (* Bypassed demand fill: the line stays absent, so the current-
         line fast path must not claim it. The next-line prefetcher
         still sees the miss. *)
      t.cc_line <- -1;
      if t.prefetch then prefetch_line t (line + 1);
      Replacement.note_access t.policy ~line;
      false
    end
    else begin
      let victim = pick_victim t base in
      let evicted = Array.unsafe_get t.tags victim <> -1 in
      if evicted then t.useful_sum <- t.useful_sum +. way_usefulness t victim;
      Array.unsafe_set t.tags victim tag;
      Array.unsafe_set t.touched victim gmask;
      Bytes.unsafe_set t.prefetched victim '\000';
      t.filled <- t.filled + 1;
      t.clock <- t.clock + 1;
      Array.unsafe_set t.lru victim t.clock;
      t.cc_line <- line;
      t.cc_idx <- victim;
      if t.preuse then Replacement.on_fill t.policy ~way:victim ~set ~evicted;
      if t.prefetch then prefetch_line t (line + 1);
      if t.preuse then Replacement.note_access t.policy ~line;
      false
    end
  end

let access t ~addr ~size =
  assert (size > 0);
  let first_line = addr lsr t.line_shift
  and last_line = (addr + size - 1) lsr t.line_shift in
  if first_line = last_line then
    access_line t ~line:first_line
      ~gmask:(gmask_of t ~offset:(addr land (t.line - 1)) ~size)
  else begin
    let hit = ref true in
    for line = first_line to last_line do
      let base = line lsl t.line_shift in
      let lo = max addr base in
      let hi = min (addr + size) (base + t.line) in
      let gmask = gmask_of t ~offset:(lo - base) ~size:(hi - lo) in
      if not (access_line t ~line ~gmask) then hit := false
    done;
    !hit
  end

(* One-line consume with the granule mask precomputed by the caller:
   the [consume] fast path minus the per-cache offset arithmetic.
   Fused sweeps compute the mask once per line size and replay it
   into every same-line-size configuration. *)
let consume_line t ~line ~gmask =
  if line = t.cc_line && Array.unsafe_get t.tags t.cc_idx = line lsr t.set_shift
  then
    Array.unsafe_set t.touched t.cc_idx
      (Array.unsafe_get t.touched t.cc_idx lor gmask)
  else begin
    let base = (line land (t.sets - 1)) * t.assoc in
    let tag = line lsr t.set_shift in
    for i = base to base + t.assoc - 1 do
      if Array.unsafe_get t.tags i = tag then
        Array.unsafe_set t.touched i (Array.unsafe_get t.touched i lor gmask)
    done
  end

let consume t ~addr ~size =
  assert (size > 0);
  let first_line = addr lsr t.line_shift
  and last_line = (addr + size - 1) lsr t.line_shift in
  if first_line = last_line then
    consume_line t ~line:first_line
      ~gmask:(gmask_of t ~offset:(addr land (t.line - 1)) ~size)
  else
    for line = first_line to last_line do
      let base = line lsl t.line_shift in
      let lo = max addr base in
      let hi = min (addr + size) (base + t.line) in
      consume_line t ~line
        ~gmask:(gmask_of t ~offset:(lo - base) ~size:(hi - lo))
    done

let accesses t = t.accesses
let misses t = t.misses

let usefulness t =
  (* Evicted lines plus a snapshot of currently-resident ones. *)
  let sum = ref t.useful_sum in
  let resident_sum = ref 0.0 and resident_n = ref 0 in
  Array.iteri
    (fun i tag ->
      if tag <> -1 then begin
        resident_sum := !resident_sum +. way_usefulness t i;
        incr resident_n
      end)
    t.tags;
  let evicted_n = t.filled - !resident_n in
  let total_n = evicted_n + !resident_n in
  if total_n = 0 then nan
  else (!sum +. !resident_sum) /. float_of_int total_n

let prefetches t = t.prefetches
let useful_prefetches t = t.useful_prefetches

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.prefetches <- 0;
  t.useful_prefetches <- 0;
  t.useful_sum <- 0.0;
  t.filled <- 0

let storage_bits t =
  let tag_bits = 48 - Repro_util.Units.log2 t.line - Repro_util.Units.log2 t.sets in
  (t.sets * t.assoc * (tag_bits + 1 + Repro_util.Units.log2 (max 2 t.assoc)))
  + (t.size * 8)
  + Replacement.storage_bits t.policy
