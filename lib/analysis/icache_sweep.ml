module Inst = Repro_isa.Inst
module F = Repro_frontend

(* Per-config section cells, and the stacks' histogram rows: the
   section (serial = 0, parallel = 1), then all line accesses
   (warm-up included) for [line_misses]. *)
let cells = 2
let line_row = 2

type t = {
  insts_s : int;
  insts_p : int;
  miss : int array; (* the 2 cells of this config *)
  accesses : int;
  line_misses : int;
  prefetches : int;
  useful_prefetches : int;
}

(* A sweep point: geometry plus replacement policy. The policy never
   influences the access-vs-extract decision (that is stream + line
   size only), so mixed-policy sweeps share line-size groups. *)
type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  policy : F.Replacement.spec;
}

let cfg ?(policy = F.Replacement.Lru) (size_bytes, line_bytes, assoc) =
  { size_bytes; line_bytes; assoc; policy }

(* How one configuration is simulated: an LRU cache without prefetch
   by its set count's stack (the [stack]th of its group), anything
   else on the cache model. *)
type member = Stack of { stack : int; assoc : int } | Model of F.Icache.t

(* One line-size group: the access-vs-extract decision and the
   current-fetch-line register depend only on the instruction stream
   and the line size, never on cache contents, so both are shared by
   every configuration with this line size.

   Same-line extraction is batched: while a fetch run stays inside
   one line, nothing touches any member cache, so the per-instruction
   granule masks are OR-accumulated into [pending] (one operation for
   the whole group) and applied to each model only when the run ends
   — at the next access, a warmup instruction, or the end of the
   stream. The cache state each individual [consume] would have seen
   is exactly the state at flush time, so the deferred bulk or is
   bit-identical to per-instruction consumes. Stacks ignore consumes. *)
type group = {
  line_shift : int;
  line_mask : int; (* line_bytes - 1 *)
  stacks : Lru_stack.t array;
  models : F.Icache.t array;
  model_ids : int array; (* config index of each model *)
  mutable accesses : int; (* line lookups, warm-up included *)
  mutable last_line : int; (* line currently being consumed; -1 = none *)
  mutable pending : int; (* granules consumed from [pending_line], unapplied *)
  mutable pending_line : int;
}

let section_bit (i : Inst.t) =
  match i.section with Repro_isa.Section.Serial -> 0 | Repro_isa.Section.Parallel -> 1

(* Partition configs by line size, in first-appearance order, and
   plan each group's stacks over its stack-served members. Returns
   the groups, each config's member and each config's group. *)
let build_groups ?next_line_prefetch ~use_stack configs =
  let sizes = ref [] in
  Array.iter
    (fun c ->
      if not (List.mem c.line_bytes !sizes) then
        sizes := c.line_bytes :: !sizes)
    configs;
  let n = Array.length configs in
  let members = Array.make n (Stack { stack = 0; assoc = 0 }) in
  let group_of = Array.make n 0 in
  let group g lb =
    let ks =
      List.filter (fun k -> configs.(k).line_bytes = lb) (List.init n Fun.id)
    in
    List.iter (fun k -> group_of.(k) <- g) ks;
    let on_stack, on_model =
      List.partition (fun k -> use_stack configs.(k)) ks
    in
    let geometry k =
      let c = configs.(k) in
      ( F.Icache.geometry ~size_bytes:c.size_bytes ~line_bytes:c.line_bytes
          ~assoc:c.assoc,
        c.assoc )
    in
    let stacks, stack_of =
      Lru_stack.plan ~rows:3 (Array.of_list (List.map geometry on_stack))
    in
    List.iteri
      (fun j k ->
        members.(k) <-
          Stack { stack = stack_of.(j); assoc = configs.(k).assoc })
      on_stack;
    let model k =
      let c = configs.(k) in
      let m =
        F.Icache.create ?next_line_prefetch ~policy:c.policy
          ~size_bytes:c.size_bytes ~line_bytes:c.line_bytes ~assoc:c.assoc ()
      in
      members.(k) <- Model m;
      m
    in
    { line_shift = Repro_util.Units.log2 lb;
      line_mask = lb - 1;
      stacks;
      models = Array.of_list (List.map model on_model);
      model_ids = Array.of_list on_model;
      accesses = 0;
      last_line = -1;
      pending = 0;
      pending_line = -1 }
  in
  (Array.of_list (List.mapi group (List.rev !sizes)), members, group_of)

let flush grp =
  if grp.pending <> 0 then begin
    let models = grp.models in
    for m = 0 to Array.length models - 1 do
      F.Icache.consume_line (Array.unsafe_get models m) ~line:grp.pending_line
        ~gmask:grp.pending
    done;
    grp.pending <- 0
  end

(* Granule mask of the instruction's bytes within its (single) line:
   a pure function of (addr, size, line size), computed once per
   group and valid for every member. Callers guarantee the span does
   not cross a line, so no clamp is needed. *)
let group_gmask grp ~addr ~size =
  let offset = addr land grp.line_mask in
  let g0 = offset / 4 and g1 = (offset + size - 1) / 4 in
  ((1 lsl (g1 - g0 + 1)) - 1) lsl g0

(* One access of lines [first..last] in every stack of the group.
   Each line's depth goes to the line row; the instruction misses at
   the depth of its deepest line, recorded in section row [sec]
   (none for warm-up, [sec] = -1). Depth 0 hits everywhere and is
   not recorded. *)
let touch_stacks grp ~first ~last ~sec =
  let stacks = grp.stacks in
  for s = 0 to Array.length stacks - 1 do
    let st = Array.unsafe_get stacks s in
    let deepest = ref 0 in
    for line = first to last do
      let d = Lru_stack.touch st line in
      if d > 0 then begin
        Lru_stack.record st ~row:line_row d;
        if d > !deepest then deepest := d
      end
    done;
    if sec >= 0 && !deepest > 0 then Lru_stack.record st ~row:sec !deepest
  done

let grouped_feed ~groups ~on_inst ~on_miss =
  let ngroups = Array.length groups in
  fun (i : Inst.t) ->
    if i.warmup then
      (* Warm every member without counting statistics. *)
      for g = 0 to ngroups - 1 do
        let grp = Array.unsafe_get groups g in
        flush grp;
        grp.last_line <- -1;
        let models = grp.models in
        let first = i.addr lsr grp.line_shift
        and last = (i.addr + i.size - 1) lsr grp.line_shift in
        grp.accesses <- grp.accesses + (last - first + 1);
        touch_stacks grp ~first ~last ~sec:(-1);
        if first = last then begin
          let gmask = group_gmask grp ~addr:i.addr ~size:i.size in
          for m = 0 to Array.length models - 1 do
            ignore
              (F.Icache.access_line (Array.unsafe_get models m) ~line:first
                 ~gmask)
          done
        end
        else
          for m = 0 to Array.length models - 1 do
            ignore
              (F.Icache.access (Array.unsafe_get models m) ~addr:i.addr
                 ~size:i.size)
          done
      done
    else begin
      let sec = section_bit i in
      on_inst sec;
      for g = 0 to ngroups - 1 do
        let grp = Array.unsafe_get groups g in
        let first = i.addr lsr grp.line_shift
        and last = (i.addr + i.size - 1) lsr grp.line_shift in
        if first <> grp.last_line || last <> grp.last_line then begin
          (* New line for every member of the group: settle the ended
             run, then access each. *)
          flush grp;
          grp.accesses <- grp.accesses + (last - first + 1);
          touch_stacks grp ~first ~last ~sec;
          let models = grp.models and ids = grp.model_ids in
          if first = last then begin
            let gmask = group_gmask grp ~addr:i.addr ~size:i.size in
            for m = 0 to Array.length models - 1 do
              if not
                   (F.Icache.access_line (Array.unsafe_get models m)
                      ~line:first ~gmask)
              then on_miss (Array.unsafe_get ids m) sec
            done
          end
          else
            for m = 0 to Array.length models - 1 do
              if not
                   (F.Icache.access (Array.unsafe_get models m) ~addr:i.addr
                      ~size:i.size)
              then on_miss (Array.unsafe_get ids m) sec
            done
        end
        else begin
          (* Same line in every member of the group: one or covers the
             whole group until the run ends. *)
          grp.pending <- grp.pending lor group_gmask grp ~addr:i.addr ~size:i.size;
          grp.pending_line <- first
        end;
        grp.last_line <- (if i.taken then -1 else last)
      done
    end

let simulate ?next_line_prefetch ~use_stack src configs =
  Repro_util.Telemetry.with_span "sweep.fused" @@ fun () ->
  let groups, members, group_of =
    build_groups ?next_line_prefetch ~use_stack configs
  in
  let miss = Array.make (Array.length configs * cells) 0 in
  let insts_s = ref 0 and insts_p = ref 0 in
  let feed =
    grouped_feed ~groups
      ~on_inst:(fun sec -> if sec = 0 then incr insts_s else incr insts_p)
      ~on_miss:(fun k sec ->
        let j = (k * cells) + sec in
        Array.unsafe_set miss j (Array.unsafe_get miss j + 1))
  in
  Tool.run_all_source src [ feed ];
  Array.iter flush groups;
  let result k member =
    let grp = groups.(group_of.(k)) in
    let r =
      { insts_s = !insts_s;
        insts_p = !insts_p;
        miss = Array.sub miss (k * cells) cells;
        accesses = grp.accesses;
        line_misses = 0;
        prefetches = 0;
        useful_prefetches = 0 }
    in
    match member with
    | Stack { stack; assoc } ->
        let st = grp.stacks.(stack) in
        { r with
          miss =
            Array.init cells (fun row -> Lru_stack.misses st ~row ~assoc);
          line_misses = Lru_stack.misses st ~row:line_row ~assoc }
    | Model c ->
        { r with
          line_misses = F.Icache.misses c;
          prefetches = F.Icache.prefetches c;
          useful_prefetches = F.Icache.useful_prefetches c }
  in
  (Array.mapi result members, members)

let run ?(next_line_prefetch = false) src configs =
  let use_stack c = c.policy = F.Replacement.Lru && not next_line_prefetch in
  fst (simulate ~next_line_prefetch ~use_stack src configs)

let usefulness ?next_line_prefetch src config =
  let use_stack _ = false in
  match simulate ?next_line_prefetch ~use_stack src [| config |] with
  | _, [| Model c |] -> F.Icache.usefulness c
  | _ -> assert false

let scope_pair s p = function
  | Branch_mix.Total -> s + p
  | Branch_mix.Only Repro_isa.Section.Serial -> s
  | Branch_mix.Only Repro_isa.Section.Parallel -> p

let insts t scope = scope_pair t.insts_s t.insts_p scope
let misses t scope = scope_pair t.miss.(0) t.miss.(1) scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let accesses (t : t) = t.accesses
let line_misses t = t.line_misses
let prefetches t = t.prefetches
let useful_prefetches t = t.useful_prefetches
