(* Test oracle: the TAGE predictor as it stood before [step] fused
   prediction and training — one provider search in [predict], a
   second in [update], a third while allocating. Kept verbatim apart
   from the history register, which is the naive {!Ref_history}, and
   the packer, which the differential test does not need. *)

module Counter = Repro_frontend.Counter
module History = Ref_history

type table_spec = { hist_len : int; index_bits : int; tag_bits : int }

(* Folded history register: maintains an [out_bits]-wide XOR-fold of
   the most recent [hist_len] outcomes, updated in O(1) per branch
   (the circular-shift construction from the TAGE papers). *)
module Folded = struct
  type t = {
    hist_len : int;
    out_bits : int;
    outpoint : int;
    mutable comp : int;
  }

  let create ~hist_len ~out_bits =
    { hist_len; out_bits; outpoint = hist_len mod out_bits; comp = 0 }

  (* [inserted] is the newest outcome; [evicted] is the outcome that
     just fell off the end of the [hist_len]-deep window. *)
  let update t ~inserted ~evicted =
    let mask = (1 lsl t.out_bits) - 1 in
    t.comp <- (t.comp lsl 1) lor Bool.to_int inserted;
    if evicted then t.comp <- t.comp lxor (1 lsl t.outpoint);
    t.comp <- (t.comp lxor (t.comp lsr t.out_bits)) land mask

  let get t = t.comp
end

type table = {
  spec : table_spec;
  tags : int array;
  ctr : Bytes.t; (* 3-bit signed counter stored 0..7; >=4 means taken *)
  useful : Bytes.t; (* 2-bit useful counter *)
  f_index : Folded.t;
  f_tag0 : Folded.t;
  f_tag1 : Folded.t;
}

type t = {
  base : Counter.t;
  base_bits : int;
  tables : table array;
  hist : History.t;
  mutable tick : int; (* periodic useful-bit aging *)
  rng : Repro_util.Rng.t; (* deterministic allocation tie-breaking *)
}

let make_table spec =
  let entries = 1 lsl spec.index_bits in
  { spec;
    tags = Array.make entries 0;
    ctr = Bytes.make entries '\004';
    useful = Bytes.make entries '\000';
    f_index = Folded.create ~hist_len:spec.hist_len ~out_bits:spec.index_bits;
    f_tag0 = Folded.create ~hist_len:spec.hist_len ~out_bits:spec.tag_bits;
    f_tag1 =
      Folded.create ~hist_len:spec.hist_len ~out_bits:(max 1 (spec.tag_bits - 1));
  }

let create ~base_index_bits specs =
  if specs = [] then invalid_arg "Tage.create: no tagged tables";
  let sorted = List.sort (fun a b -> compare a.hist_len b.hist_len) specs in
  if sorted <> specs then invalid_arg "Tage.create: specs must be sorted";
  let max_hist = (List.nth specs (List.length specs - 1)).hist_len in
  { base = Counter.create ~bits:2 ~entries:(1 lsl base_index_bits);
    base_bits = base_index_bits;
    tables = Array.of_list (List.map make_table specs);
    hist = History.create (max_hist + 1);
    tick = 0;
    rng = Repro_util.Rng.create 0x7a6e }

let geometric_specs ~n_tables ~min_hist ~max_hist ~index_bits ~tag_bits =
  assert (n_tables >= 1 && min_hist >= 1 && max_hist > min_hist);
  let ratio =
    if n_tables = 1 then 1.0
    else
      (float_of_int max_hist /. float_of_int min_hist)
      ** (1.0 /. float_of_int (n_tables - 1))
  in
  List.init n_tables (fun i ->
      let len =
        int_of_float (Float.round (float_of_int min_hist *. (ratio ** float_of_int i)))
      in
      { hist_len = max 1 len; index_bits; tag_bits })

let table_index tb pc =
  ((pc lsr 1) lxor (pc lsr (tb.spec.index_bits + 1)) lxor Folded.get tb.f_index)
  land ((1 lsl tb.spec.index_bits) - 1)

let table_tag tb pc =
  ((pc lsr 1) lxor Folded.get tb.f_tag0 lxor (Folded.get tb.f_tag1 lsl 1))
  land ((1 lsl tb.spec.tag_bits) - 1)

let ctr_taken c = Char.code c >= 4
let ctr_weak c = Char.code c = 3 || Char.code c = 4

(* Returns (provider_table_idx, entry_idx) of the longest matching
   tagged component, or (-1, _) when only the base matches. *)
let find_provider t pc =
  let rec go i =
    if i < 0 then (-1, 0)
    else
      let tb = t.tables.(i) in
      let idx = table_index tb pc in
      if tb.tags.(idx) = table_tag tb pc then (i, idx) else go (i - 1)
  in
  go (Array.length t.tables - 1)

let find_alt t pc below =
  let rec go i =
    if i < 0 then None
    else
      let tb = t.tables.(i) in
      let idx = table_index tb pc in
      if tb.tags.(idx) = table_tag tb pc then Some (i, idx) else go (i - 1)
  in
  go (below - 1)

let base_index t pc = (pc lsr 1) land ((1 lsl t.base_bits) - 1)
let base_predict t pc = Counter.is_taken t.base (base_index t pc)

let predict t ~pc =
  let prov, idx = find_provider t pc in
  if prov < 0 then base_predict t pc
  else ctr_taken (Bytes.get t.tables.(prov).ctr idx)

let update_ctr tb idx taken =
  let v = Char.code (Bytes.get tb.ctr idx) in
  let v' = if taken then min 7 (v + 1) else max 0 (v - 1) in
  Bytes.set tb.ctr idx (Char.chr v')

let update_useful tb idx inc =
  let v = Char.code (Bytes.get tb.useful idx) in
  let v' = if inc then min 3 (v + 1) else max 0 (v - 1) in
  Bytes.set tb.useful idx (Char.chr v')

let allocate t pc taken above =
  (* Try to claim an entry with useful = 0 in a longer-history table;
     start from a pseudo-randomly chosen candidate so allocations
     spread across tables, as in the reference implementation. *)
  let n = Array.length t.tables in
  let candidates = ref [] in
  for i = n - 1 downto above + 1 do
    let tb = t.tables.(i) in
    let idx = table_index tb pc in
    if Char.code (Bytes.get tb.useful idx) = 0 then
      candidates := (i, idx) :: !candidates
  done;
  match !candidates with
  | [] ->
      (* No free entry: age the would-be victims. *)
      for i = above + 1 to n - 1 do
        let tb = t.tables.(i) in
        update_useful tb (table_index tb pc) false
      done
  | cands ->
      let pick =
        if List.length cands = 1 || Repro_util.Rng.bernoulli t.rng 0.67 then
          List.hd cands
        else List.nth cands 1
      in
      let i, idx = pick in
      let tb = t.tables.(i) in
      tb.tags.(idx) <- table_tag tb pc;
      Bytes.set tb.ctr idx (if taken then '\004' else '\003');
      Bytes.set tb.useful idx '\000'

let update t ~pc ~taken =
  let prov, pidx = find_provider t pc in
  let pred =
    if prov < 0 then base_predict t pc
    else ctr_taken (Bytes.get t.tables.(prov).ctr pidx)
  in
  let alt_pred =
    if prov < 0 then base_predict t pc
    else
      match find_alt t pc prov with
      | Some (i, idx) -> ctr_taken (Bytes.get t.tables.(i).ctr idx)
      | None -> base_predict t pc
  in
  (* Train the provider (or the base). *)
  if prov < 0 then Counter.update t.base (base_index t pc) taken
  else begin
    let tb = t.tables.(prov) in
    update_ctr tb pidx taken;
    (* Newly-allocated (weak) entries also train the base so evicted
       entries do not lose the bimodal fallback. *)
    if ctr_weak (Bytes.get tb.ctr pidx) then
      Counter.update t.base (base_index t pc) taken;
    if pred <> alt_pred then update_useful tb pidx (pred = taken)
  end;
  (* Allocate on a misprediction if a longer history might help. *)
  if pred <> taken && prov < Array.length t.tables - 1 then
    allocate t pc taken prov;
  (* Periodic graceful aging of useful counters. *)
  t.tick <- t.tick + 1;
  if t.tick land 0x3FFFF = 0 then
    Array.iter
      (fun tb ->
        Bytes.iteri
          (fun i c ->
            if Char.code c > 0 then Bytes.set tb.useful i (Char.chr (Char.code c - 1)))
          tb.useful)
      t.tables;
  (* Advance global and folded histories. *)
  let evicted_at len = History.bit t.hist (len - 1) in
  Array.iter
    (fun tb ->
      let ev = evicted_at tb.spec.hist_len in
      Folded.update tb.f_index ~inserted:taken ~evicted:ev;
      Folded.update tb.f_tag0 ~inserted:taken ~evicted:ev;
      Folded.update tb.f_tag1 ~inserted:taken ~evicted:ev)
    t.tables;
  History.push t.hist taken

let storage_bits t =
  let table_bits tb =
    let entries = Array.length tb.tags in
    entries * (tb.spec.tag_bits + 3 + 2)
  in
  Counter.storage_bits t.base
  + Array.fold_left (fun acc tb -> acc + table_bits tb) 0 t.tables
  + History.length t.hist

