(* Replacement policy behind the flat-SoA {!Icache}. See the .mli for
   the contract; the hot-path discipline here matches the cache
   itself: flat int arrays, no per-access allocation, and the [Lru]
   case compiles down to the historical victim scan plus no-op
   hooks (the cache skips the hook calls entirely for [Lru]). *)

type spec = Lru | Preuse

let all_specs = [ Lru; Preuse ]

let spec_to_string = function Lru -> "lru" | Preuse -> "preuse"

let spec_of_string = function
  | "lru" -> Some Lru
  | "preuse" -> Some Preuse
  | _ -> None

(* Perceptron shape after Teran et al. (MICRO 2016): 6 hashed feature
   tables x 256 entries of 6-bit signed saturating weights, trained
   with unit steps against a training threshold, predictions compared
   against a bypass/dead threshold. *)
let tables = 6
let table_entries = 256
let weight_min = -32
let weight_max = 31
let theta = 68
let tau = 3

(* One set in four is a sampler set: it trains the predictor on real
   reuse/eviction outcomes and never bypasses. Without this carve-out
   the predictor can deadlock — bypassed lines are never resident, so
   nothing is ever evicted or reused and the weights freeze wherever
   they drifted. *)
let sampled_set set = set land 3 = 0

type preuse = {
  wt : int array; (* tables * table_entries signed weights *)
  feat : int array; (* ways * tables: per-way recorded table indices *)
  youts : int array; (* ways: per-way recorded prediction sum *)
  pdead : Bytes.t; (* ways: '\001' = predicted dead at last touch *)
  mutable h1 : int; (* most recent demand fetch line *)
  mutable h2 : int; (* second most recent *)
  (* Scratch for the prediction computed by [prepare], consumed by
     the next [on_fill]; one fill is always in flight at a time. *)
  s_idx : int array; (* tables *)
  mutable s_yout : int;
}

type state = Lru_state | Preuse_state of preuse

type t = { sp : spec; assoc : int; state : state }

let create sp ~assoc ~ways =
  let state =
    match sp with
    | Lru -> Lru_state
    | Preuse ->
        Preuse_state
          { wt = Array.make (tables * table_entries) 0;
            feat = Array.make (ways * tables) 0;
            youts = Array.make ways 0;
            pdead = Bytes.make ways '\000';
            h1 = 0;
            h2 = 0;
            s_idx = Array.make tables 0;
            s_yout = 0 }
  in
  { sp; assoc; state }

let spec t = t.sp

let storage_bits t =
  match t.state with
  | Lru_state -> 0
  | Preuse_state p ->
      (* Weights at 6 bits, per-way metadata (recorded indices, a
         9-bit recorded sum, a dead bit), two history registers. *)
      (tables * table_entries * 6)
      + (Array.length p.youts * ((tables * 8) + 9 + 1))
      + (2 * 16)

let clamp w =
  if w < weight_min then weight_min
  else if w > weight_max then weight_max
  else w

(* Train the recorded prediction of [way] against the observed
   outcome. Perceptron rule: update only when the recorded prediction
   was wrong or not yet confident (|yout| <= theta); reuse pushes the
   touched weights down, death pushes them up. *)
let train p ~way ~reused =
  let yout = p.youts.(way) in
  let predicted_dead = yout >= tau in
  if predicted_dead = reused || abs yout <= theta then begin
    let base = way * tables in
    for j = 0 to tables - 1 do
      let k = (j * table_entries) + p.feat.(base + j) in
      let w = Array.unsafe_get p.wt k in
      Array.unsafe_set p.wt k (clamp (if reused then w - 1 else w + 1))
    done
  end

(* Predict [line] under the current history: write the six table
   indices to [dst] from offset [off] and return the sum. The features
   hash the fetch-line address and the two most recent demand fetch
   lines. The line address is the PC stripped of its line offset, so
   "PC bits" and "line address bits" coincide at the granularity the
   cache sees. Kept deliberately simple (shifts and xors into 8 bits)
   — the differential-test reference transliterates these expressions
   verbatim — and unrolled, because this runs on every hit. *)
let predict p ~line dst off =
  let m = table_entries - 1 in
  let i0 = line land m in
  let i1 = (line lsr 4) land m in
  let i2 = (line lsr 8) land m in
  let i3 = (line lxor (line lsr 5)) land m in
  let i4 = (line lxor p.h1) land m in
  let i5 = ((line lsr 2) lxor (p.h2 lsr 1)) land m in
  Array.unsafe_set dst off i0;
  Array.unsafe_set dst (off + 1) i1;
  Array.unsafe_set dst (off + 2) i2;
  Array.unsafe_set dst (off + 3) i3;
  Array.unsafe_set dst (off + 4) i4;
  Array.unsafe_set dst (off + 5) i5;
  let wt = p.wt in
  Array.unsafe_get wt i0
  + Array.unsafe_get wt (table_entries + i1)
  + Array.unsafe_get wt ((2 * table_entries) + i2)
  + Array.unsafe_get wt ((3 * table_entries) + i3)
  + Array.unsafe_get wt ((4 * table_entries) + i4)
  + Array.unsafe_get wt ((5 * table_entries) + i5)

(* Install a prediction summing to [yout] as [way]'s recorded state;
   its indices are already in [feat]. *)
let set_yout p ~way yout =
  p.youts.(way) <- yout;
  Bytes.unsafe_set p.pdead way (if yout >= tau then '\001' else '\000')

let on_hit t ~way ~set ~line =
  match t.state with
  | Lru_state -> ()
  | Preuse_state p ->
      if sampled_set set then train p ~way ~reused:true;
      set_yout p ~way (predict p ~line p.feat (way * tables))

let prepare t ~set ~line =
  match t.state with
  | Lru_state -> false
  | Preuse_state p ->
      p.s_yout <- predict p ~line p.s_idx 0;
      (not (sampled_set set)) && p.s_yout >= tau

(* The historical hard-wired scan, verbatim: first invalid way wins,
   else least-recently-used, ties keep the lowest way index. *)
let victim_lru ~tags ~lru ~base ~assoc =
  let best = ref base in
  for i = base + 1 to base + assoc - 1 do
    if Array.unsafe_get tags !best <> -1
       && (Array.unsafe_get tags i = -1
           || Array.unsafe_get lru i < Array.unsafe_get lru !best) then
      best := i
  done;
  !best

let victim t ~tags ~lru ~base =
  match t.state with
  | Lru_state -> victim_lru ~tags ~lru ~base ~assoc:t.assoc
  | Preuse_state p ->
      (* First invalid way; else the least-recently-used way among
         those predicted dead; else plain LRU. The first invalid way
         short-circuits the scan, matching [victim_lru]. *)
      let invalid = ref (-1) in
      let dead = ref (-1) in
      let lruv = ref (-1) in
      let i = ref base in
      let limit = base + t.assoc in
      while !invalid = -1 && !i < limit do
        let w = !i in
        (if Array.unsafe_get tags w = -1 then invalid := w
         else begin
           if !lruv = -1
              || Array.unsafe_get lru w < Array.unsafe_get lru !lruv
           then lruv := w;
           if Bytes.unsafe_get p.pdead w <> '\000'
              && (!dead = -1
                  || Array.unsafe_get lru w < Array.unsafe_get lru !dead)
           then dead := w
         end);
        incr i
      done;
      if !invalid <> -1 then !invalid
      else if !dead <> -1 then !dead
      else !lruv

let on_fill t ~way ~set ~evicted =
  match t.state with
  | Lru_state -> ()
  | Preuse_state p ->
      if evicted && sampled_set set then train p ~way ~reused:false;
      Array.blit p.s_idx 0 p.feat (way * tables) tables;
      set_yout p ~way p.s_yout

let note_access t ~line =
  match t.state with
  | Lru_state -> ()
  | Preuse_state p ->
      p.h2 <- p.h1;
      p.h1 <- line
