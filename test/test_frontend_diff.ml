(* Reference-model differential tests for lib/frontend.

   Each hardware structure is re-implemented here in the most naive
   style that is obviously correct — association lists in LRU order, a
   plain counter table indexed through an explicit history register —
   and driven lock-step with the real structure on random operation
   streams. Every observable (per-operation results and the final
   statistics) must agree. These guard the optimized paths in the real
   models: the I-cache's shift-based indexing and consume fast path,
   and History's packed low-bits register. *)

module F = Repro_frontend

(* ------------------------------------------------------------------ *)
(* Perceptron reuse/bypass reference: a direct transliteration of the
   update rule from Replacement's documentation — per-table 2D weight
   arrays, a prediction captured as an immutable record travelling
   with the cache line it was made for, training by rebuilding the
   clamped weights through Array.iteri. Nothing is shared with the
   flat production layout. *)

module Ref_preuse = struct
  let tables = 6
  let entries = 256
  let wmin = -32
  let wmax = 31
  let theta = 68
  let tau = 3

  (* A prediction: the per-table indices it read and the sum it saw. *)
  type pred = { idx : int array; yout : int }

  let no_pred = { idx = [||]; yout = 0 }

  type t = {
    wt : int array array; (* tables x entries *)
    mutable h1 : int; (* most recent demand fetch line *)
    mutable h2 : int;
  }

  let create () =
    { wt = Array.init tables (fun _ -> Array.make entries 0); h1 = 0; h2 = 0 }

  let feature t j line =
    (match j with
    | 0 -> line
    | 1 -> line lsr 4
    | 2 -> line lsr 8
    | 3 -> line lxor (line lsr 5)
    | 4 -> line lxor t.h1
    | _ -> (line lsr 2) lxor (t.h2 lsr 1))
    land (entries - 1)

  let predict t line =
    let idx = Array.init tables (fun j -> feature t j line) in
    let yout = ref 0 in
    Array.iteri (fun j ix -> yout := !yout + t.wt.(j).(ix)) idx;
    { idx; yout = !yout }

  let dead p = p.yout >= tau
  let sampled set = set land 3 = 0

  (* Update only on a misprediction or while under-confident; reuse
     pushes the touched weights down, death pushes them up. *)
  let train t (p : pred) ~reused =
    if dead p = reused || abs p.yout <= theta then
      Array.iteri
        (fun j ix ->
          let w = t.wt.(j).(ix) + if reused then -1 else 1 in
          t.wt.(j).(ix) <- max wmin (min wmax w))
        p.idx

  let note t line =
    t.h2 <- t.h1;
    t.h1 <- line
end

(* ------------------------------------------------------------------ *)
(* I-cache reference: per-set MRU-first lists, parameterized by a
   reference replacement policy (plain LRU or the perceptron above). *)

module Ref_icache = struct
  type way = {
    tag : int;
    mutable touched : int;
    mutable prefetched : bool;
    mutable pred : Ref_preuse.pred; (* last prediction for this line *)
  }

  type t = {
    sets : int;
    assoc : int;
    line : int;
    granules : int;
    prefetch : bool;
    pol : Ref_preuse.t option; (* None = LRU *)
    mutable mem : way list array; (* most recently used first *)
    mutable accesses : int;
    mutable misses : int;
    mutable prefetches : int;
    mutable useful_prefetches : int;
    mutable useful_sum : float;
    mutable filled : int;
  }

  let create ?(next_line_prefetch = false) ?(policy = F.Replacement.Lru)
      ~size_bytes ~line_bytes ~assoc () =
    let sets = size_bytes / line_bytes / assoc in
    { sets;
      assoc;
      line = line_bytes;
      granules = line_bytes / 4;
      prefetch = next_line_prefetch;
      pol =
        (match policy with
        | F.Replacement.Lru -> None
        | F.Replacement.Preuse -> Some (Ref_preuse.create ()));
      mem = Array.make sets [];
      accesses = 0;
      misses = 0;
      prefetches = 0;
      useful_prefetches = 0;
      useful_sum = 0.0;
      filled = 0 }

  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
    go 0 x

  let usefulness_of t w = float_of_int (popcount w.touched) /. float_of_int t.granules

  let mark t w ~offset ~size =
    let g0 = offset / 4 and g1 = (offset + size - 1) / 4 in
    for g = g0 to min g1 (t.granules - 1) do
      w.touched <- w.touched lor (1 lsl g)
    done

  (* The policy's victim in a full set. For LRU that is the last
     (least recently used) way of the MRU-first list; the perceptron
     prefers the least recently used among the ways whose last
     prediction said "dead", falling back to plain LRU. *)
  let victim_of t set_idx =
    let l = t.mem.(set_idx) in
    let last ways = List.nth ways (List.length ways - 1) in
    match t.pol with
    | None -> last l
    | Some _ -> (
        match List.filter (fun w -> Ref_preuse.dead w.pred) l with
        | [] -> last l
        | dead -> last dead)

  (* Insert [w] at the front of [set_idx]; when the set is full, the
     policy's victim is evicted, its usefulness recorded, and — on
     sampler sets under the perceptron — its death trained. *)
  let insert_front t set_idx w =
    let l = t.mem.(set_idx) in
    let l =
      if List.length l = t.assoc then begin
        let victim = victim_of t set_idx in
        t.useful_sum <- t.useful_sum +. usefulness_of t victim;
        (match t.pol with
        | Some p when Ref_preuse.sampled set_idx ->
            Ref_preuse.train p victim.pred ~reused:false
        | _ -> ());
        List.filter (fun x -> x != victim) l
      end
      else l
    in
    t.mem.(set_idx) <- w :: l;
    t.filled <- t.filled + 1

  let find t set_idx tag = List.find_opt (fun w -> w.tag = tag) t.mem.(set_idx)

  let to_front t set_idx w =
    t.mem.(set_idx) <- w :: List.filter (fun x -> x != w) t.mem.(set_idx)

  (* Prefetch fills predict and can train an evicted victim, but never
     bypass and never enter the demand-line history. *)
  let prefetch_line t line =
    let set_idx = line mod t.sets in
    let tag = line / t.sets in
    match find t set_idx tag with
    | Some _ -> ()
    | None ->
        let pred =
          match t.pol with
          | None -> Ref_preuse.no_pred
          | Some p -> Ref_preuse.predict p line
        in
        let w = { tag; touched = 0; prefetched = true; pred } in
        insert_front t set_idx w;
        t.prefetches <- t.prefetches + 1

  let access_line t line ~offset ~size =
    let set_idx = line mod t.sets in
    let tag = line / t.sets in
    t.accesses <- t.accesses + 1;
    let hit =
      match find t set_idx tag with
      | Some w ->
          (* Reuse observed: train on sampler sets, then re-predict
             this line under the current history. *)
          (match t.pol with
          | Some p ->
              if Ref_preuse.sampled set_idx then
                Ref_preuse.train p w.pred ~reused:true;
              w.pred <- Ref_preuse.predict p line
          | None -> ());
          if w.prefetched then begin
            w.prefetched <- false;
            t.useful_prefetches <- t.useful_prefetches + 1
          end;
          to_front t set_idx w;
          mark t w ~offset ~size;
          true
      | None ->
          t.misses <- t.misses + 1;
          let pred =
            match t.pol with
            | None -> Ref_preuse.no_pred
            | Some p -> Ref_preuse.predict p line
          in
          let bypass =
            t.pol <> None
            && (not (Ref_preuse.sampled set_idx))
            && Ref_preuse.dead pred
          in
          if not bypass then begin
            let w = { tag; touched = 0; prefetched = false; pred } in
            insert_front t set_idx w;
            mark t w ~offset ~size
          end;
          if t.prefetch then prefetch_line t (line + 1);
          false
    in
    (* Demand accesses (hit, fill or bypass) advance the history. *)
    (match t.pol with Some p -> Ref_preuse.note p line | None -> ());
    hit

  let access t ~addr ~size =
    let first = addr / t.line and last = (addr + size - 1) / t.line in
    let hit = ref true in
    for line = first to last do
      let lo = max addr (line * t.line) in
      let hi = min (addr + size) ((line + 1) * t.line) in
      if not (access_line t line ~offset:(lo - (line * t.line)) ~size:(hi - lo))
      then hit := false
    done;
    !hit

  let consume t ~addr ~size =
    let first = addr / t.line and last = (addr + size - 1) / t.line in
    for line = first to last do
      let lo = max addr (line * t.line) in
      let hi = min (addr + size) ((line + 1) * t.line) in
      match find t (line mod t.sets) (line / t.sets) with
      | Some w -> mark t w ~offset:(lo - (line * t.line)) ~size:(hi - lo)
      | None -> ()
    done

  let usefulness t =
    let resident = ref 0.0 in
    Array.iter
      (List.iter (fun w -> resident := !resident +. usefulness_of t w))
      t.mem;
    if t.filled = 0 then nan else (t.useful_sum +. !resident) /. float_of_int t.filled
end

type iop = Access of int * int | Consume of int * int

let icache_ops_gen =
  (* Clustered fetch behaviour over a few KB of address space: runs of
     sequential extraction (consumes) punctuated by jumps (accesses),
     plus the occasional consume of a line that was never looked up. *)
  QCheck.Gen.(
    let op =
      let* addr = int_bound 4095 in
      let* size = int_range 1 15 in
      let* seq_consumes = int_bound 4 in
      let* stray = int_bound 9 in
      return
        ((Access (addr, size)
          :: List.init seq_consumes (fun k ->
                 Consume (addr + ((k + 1) * size), size)))
        @ if stray = 0 then [ Consume (addr lxor 0x800, size) ] else [])
    in
    let* ops = list_size (int_range 1 120) op in
    return (List.concat ops))

let icache_config_gen =
  QCheck.Gen.(
    let* size = oneofl [ 512; 1024; 2048 ] in
    let* line = oneofl [ 16; 32; 64 ] in
    let* assoc = oneofl [ 1; 2; 4 ] in
    let* pf = bool in
    return (size, line, assoc, pf))

let pp_iop = function
  | Access (a, s) -> Printf.sprintf "A(%d,%d)" a s
  | Consume (a, s) -> Printf.sprintf "C(%d,%d)" a s

let icache_arb =
  QCheck.make
    QCheck.Gen.(pair icache_config_gen icache_ops_gen)
    ~print:(fun ((sz, l, a, pf), ops) ->
      Printf.sprintf "%dB/%dB/%dw pf=%b: %s" sz l a pf
        (String.concat " " (List.map pp_iop ops)))

let icache_diff_prop ~policy ((size_bytes, line_bytes, assoc, pf), ops) =
  QCheck.assume (size_bytes / line_bytes >= assoc);
  let real =
    F.Icache.create ~next_line_prefetch:pf ~policy ~size_bytes ~line_bytes
      ~assoc ()
  in
  let ref_ =
    Ref_icache.create ~next_line_prefetch:pf ~policy ~size_bytes ~line_bytes
      ~assoc ()
  in
  List.for_all
    (fun op ->
      match op with
      | Access (addr, size) ->
          F.Icache.access real ~addr ~size = Ref_icache.access ref_ ~addr ~size
      | Consume (addr, size) ->
          F.Icache.consume real ~addr ~size;
          Ref_icache.consume ref_ ~addr ~size;
          true)
    ops
  && F.Icache.accesses real = ref_.Ref_icache.accesses
  && F.Icache.misses real = ref_.Ref_icache.misses
  && F.Icache.prefetches real = ref_.Ref_icache.prefetches
  && F.Icache.useful_prefetches real = ref_.Ref_icache.useful_prefetches
  &&
  let u = F.Icache.usefulness real and v = Ref_icache.usefulness ref_ in
  (Float.is_nan u && Float.is_nan v) || Float.abs (u -. v) < 1e-9

let prop_icache_matches_reference =
  QCheck.Test.make ~name:"Icache == naive LRU reference" ~count:150 icache_arb
    (icache_diff_prop ~policy:F.Replacement.Lru)

let prop_icache_matches_preuse_reference =
  QCheck.Test.make ~name:"Icache == naive perceptron reference" ~count:150
    icache_arb
    (icache_diff_prop ~policy:F.Replacement.Preuse)

(* ------------------------------------------------------------------ *)
(* BTB reference: per-set association lists in LRU order. *)

module Ref_btb = struct
  type t = {
    sets : int;
    assoc : int;
    mem : (int * int) list array; (* (tag, target), MRU first *)
  }

  let create ~entries ~assoc = { sets = entries / assoc; assoc; mem = Array.make (entries / assoc) [] }

  let set_of t pc = (pc lsr 1) mod t.sets
  let tag_of t pc = pc lsr 1 / t.sets

  let lookup t ~pc =
    let s = set_of t pc and tag = tag_of t pc in
    match List.assoc_opt tag t.mem.(s) with
    | None -> None
    | Some target ->
        (* refresh LRU, as the real BTB's lookup does *)
        t.mem.(s) <-
          (tag, target) :: List.filter (fun (tg, _) -> tg <> tag) t.mem.(s);
        Some target

  let insert t ~pc ~target =
    let s = set_of t pc and tag = tag_of t pc in
    let rest = List.filter (fun (tg, _) -> tg <> tag) t.mem.(s) in
    let rest =
      if List.length rest >= t.assoc then
        List.filteri (fun i _ -> i < t.assoc - 1) rest
      else rest
    in
    t.mem.(s) <- (tag, target) :: rest
end

type bop = Lookup of int | Insert of int * int

let btb_arb =
  QCheck.make
    QCheck.Gen.(
      let* entries = oneofl [ 16; 64 ] in
      let* assoc = oneofl [ 1; 2; 4; 8 ] in
      let* ops =
        list_size (int_range 1 600)
          (let* pc = int_bound 1023 in
           let* ins = bool in
           if ins then
             let* target = int_bound 0xFFFF in
             return (Insert (pc, target))
           else return (Lookup pc))
      in
      return (entries, assoc, ops))
    ~print:(fun (e, a, ops) ->
      Printf.sprintf "%de/%dw %d ops: %s" e a (List.length ops)
        (String.concat " "
           (List.map
              (function
                | Lookup pc -> Printf.sprintf "L%d" pc
                | Insert (pc, t) -> Printf.sprintf "I%d->%d" pc t)
              ops)))

let prop_btb_matches_reference =
  QCheck.Test.make ~name:"Btb == assoc-list LRU reference" ~count:150 btb_arb
    (fun (entries, assoc, ops) ->
      QCheck.assume (assoc <= entries);
      let real = F.Btb.create ~entries ~assoc in
      let ref_ = Ref_btb.create ~entries ~assoc in
      List.for_all
        (fun op ->
          match op with
          | Lookup pc -> F.Btb.lookup real ~pc = Ref_btb.lookup ref_ ~pc
          | Insert (pc, target) ->
              F.Btb.insert real ~pc ~target;
              Ref_btb.insert ref_ ~pc ~target;
              true)
        ops)

(* ------------------------------------------------------------------ *)
(* Gshare reference: a plain int-array PHT indexed through an explicit
   shift-register history — no Counter, no History. *)

module Ref_gshare = struct
  type t = { m : int; table : int array; mutable hist : int }

  let create ~history_bits =
    { m = history_bits; table = Array.make (1 lsl history_bits) 1; hist = 0 }

  let mask t = (1 lsl t.m) - 1
  let index t pc = ((pc lsr 1) lxor (t.hist land mask t)) land mask t
  let predict t ~pc = t.table.(index t pc) >= 2

  let update t ~pc ~taken =
    let i = index t pc in
    let v = t.table.(i) in
    t.table.(i) <- (if taken then min 3 (v + 1) else max 0 (v - 1));
    t.hist <- ((t.hist lsl 1) lor (if taken then 1 else 0)) land mask t
end

let gshare_arb =
  QCheck.make
    QCheck.Gen.(
      let* m = int_range 2 16 in
      let* ops =
        list_size (int_range 1 800) (pair (int_bound 0xFFFFF) bool)
      in
      return (m, ops))
    ~print:(fun (m, ops) -> Printf.sprintf "m=%d, %d branches" m (List.length ops))

let prop_gshare_matches_reference =
  QCheck.Test.make ~name:"Gshare == direct table+register reference"
    ~count:100 gshare_arb (fun (m, ops) ->
      let real = F.Gshare.create ~history_bits:m in
      let ref_ = Ref_gshare.create ~history_bits:m in
      List.for_all
        (fun (pc, taken) ->
          let same = F.Gshare.step real ~pc ~taken = Ref_gshare.predict ref_ ~pc in
          Ref_gshare.update ref_ ~pc ~taken;
          same)
        ops)

(* ------------------------------------------------------------------ *)
(* [History.bit] reads the packed register below bit 62 and the
   circular buffer above it; both must agree with a plain list at
   every length the constructor accepts. *)
let prop_history_bit =
  QCheck.Test.make ~name:"History.bit == list reference, len 1-1024"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* len =
           frequencyl [ (1, 1); (1, 61); (1, 62); (1, 63); (1, 1024) ]
           >>= fun l -> frequency [ (1, return l); (3, int_range 1 1024) ]
         in
         let* pushes = list_size (int_range 0 (2 * len + 3)) bool in
         return (len, pushes))
       ~print:(fun (len, p) -> Printf.sprintf "len=%d, %d pushes" len (List.length p)))
    (fun (len, pushes) ->
      let h = F.History.create len and r = Ref_history.create len in
      List.iter (fun b -> F.History.push h b; Ref_history.push r b) pushes;
      List.for_all
        (fun i -> F.History.bit h i = Ref_history.bit r i)
        (List.init (len + 2) (fun i -> i - 1)))

(* ------------------------------------------------------------------ *)
(* History: the packed low-bits register must agree with the circular
   bit buffer it shadows, through pushes and clears. *)

let history_arb =
  QCheck.make
    QCheck.Gen.(
      let* len = int_range 1 80 in
      let* ops =
        list_size (int_range 1 300)
          (frequencyl [ (15, `Push true); (15, `Push false); (1, `Clear) ])
      in
      return (len, ops))
    ~print:(fun (len, ops) ->
      Printf.sprintf "len=%d %s" len
        (String.concat ""
           (List.map
              (function
                | `Push true -> "T" | `Push false -> "n" | `Clear -> "|")
              ops)))

let prop_history_low_bits =
  QCheck.Test.make ~name:"History.low_bits == bit-by-bit reconstruction"
    ~count:200 history_arb (fun (len, ops) ->
      let h = F.History.create len in
      List.for_all
        (fun op ->
          (match op with
          | `Push taken -> F.History.push h taken
          | `Clear -> F.History.clear h);
          List.for_all
            (fun n ->
              let slow = ref 0 in
              for i = min n len - 1 downto 0 do
                slow := (!slow lsl 1) lor (if F.History.bit h i then 1 else 0)
              done;
              F.History.low_bits h n = !slow)
            (* low_bits admits n <= 62 only *)
            [ 1; 3; len / 2; min len 62; 62 ])
        ops)

let () =
  Alcotest.run "frontend-diff"
    [ ("icache",
       Qseed.all
         [ prop_icache_matches_reference;
           prop_icache_matches_preuse_reference ]);
      ("btb", Qseed.all [ prop_btb_matches_reference ]);
      ("gshare", Qseed.all [ prop_gshare_matches_reference ]);
      ("history", Qseed.all [ prop_history_low_bits; prop_history_bit ]) ]
