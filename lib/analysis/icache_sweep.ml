module Inst = Repro_isa.Inst
module F = Repro_frontend

(* Miss matrix layout: config-major, 2 cells per config — the
   section (serial = 0, parallel = 1). *)
let cells = 2

type t = {
  cache : F.Icache.t;
  insts_s : int;
  insts_p : int;
  miss : int array; (* the 2 cells of this config *)
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

(* One line-size group: the access-vs-extract decision and the
   current-fetch-line register depend only on the instruction stream
   and the line size, never on cache contents, so both are shared by
   every configuration with this line size.

   Same-line extraction is batched: while a fetch run stays inside
   one line, nothing touches any member cache, so the per-instruction
   granule masks are OR-accumulated into [pending] (one operation for
   the whole group) and applied to each member only when the run ends
   — at the next access, a warmup instruction, or the end of the
   stream. The cache state each individual [consume] would have seen
   is exactly the state at flush time, so the deferred bulk or is
   bit-identical to per-instruction consumes. *)
type group = {
  line_shift : int;
  line_mask : int; (* line_bytes - 1 *)
  members : int array; (* config indices *)
  mutable last_line : int; (* line currently being consumed; -1 = none *)
  mutable pending : int; (* granules consumed from [pending_line], unapplied *)
  mutable pending_line : int;
}

let section_bit (i : Inst.t) =
  match i.section with Repro_isa.Section.Serial -> 0 | Repro_isa.Section.Parallel -> 1

(* Partition config indices by line size, in first-appearance
   order. *)
let build_groups line_bytes =
  let distinct = ref [] in
  Array.iter
    (fun lb -> if not (List.mem lb !distinct) then distinct := lb :: !distinct)
    line_bytes;
  let members = List.init (Array.length line_bytes) Fun.id in
  List.rev !distinct
  |> List.map (fun lb ->
         let mem =
           Array.of_list (List.filter (fun k -> line_bytes.(k) = lb) members)
         in
         { line_shift = Repro_util.Units.log2 lb;
           line_mask = lb - 1;
           members = mem;
           last_line = -1;
           pending = 0;
           pending_line = -1 })
  |> Array.of_list

let flush caches grp =
  if grp.pending <> 0 then begin
    let members = grp.members in
    for m = 0 to Array.length members - 1 do
      F.Icache.consume_line
        (Array.unsafe_get caches (Array.unsafe_get members m))
        ~line:grp.pending_line ~gmask:grp.pending
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

let grouped_feed ~caches ~groups ~on_inst ~on_miss =
  let ngroups = Array.length groups in
  fun (i : Inst.t) ->
    if i.warmup then
      (* Warm every cache without counting statistics. *)
      for g = 0 to ngroups - 1 do
        let grp = Array.unsafe_get groups g in
        flush caches grp;
        grp.last_line <- -1;
        let members = grp.members in
        let first = i.addr lsr grp.line_shift
        and last = (i.addr + i.size - 1) lsr grp.line_shift in
        if first = last then begin
          let gmask = group_gmask grp ~addr:i.addr ~size:i.size in
          for m = 0 to Array.length members - 1 do
            ignore
              (F.Icache.access_line
                 (Array.unsafe_get caches (Array.unsafe_get members m))
                 ~line:first ~gmask)
          done
        end
        else
          for m = 0 to Array.length members - 1 do
            ignore
              (F.Icache.access
                 (Array.unsafe_get caches (Array.unsafe_get members m))
                 ~addr:i.addr ~size:i.size)
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
          (* New line for every cache in the group: settle the ended
             run, then access each. *)
          flush caches grp;
          let members = grp.members in
          if first = last then begin
            let gmask = group_gmask grp ~addr:i.addr ~size:i.size in
            for m = 0 to Array.length members - 1 do
              let k = Array.unsafe_get members m in
              if not
                   (F.Icache.access_line (Array.unsafe_get caches k)
                      ~line:first ~gmask)
              then on_miss k sec
            done
          end
          else
            for m = 0 to Array.length members - 1 do
              let k = Array.unsafe_get members m in
              if not
                   (F.Icache.access (Array.unsafe_get caches k) ~addr:i.addr
                      ~size:i.size)
              then on_miss k sec
            done
        end
        else begin
          (* Same line in every cache of the group: one or covers the
             whole group until the run ends. *)
          grp.pending <- grp.pending lor group_gmask grp ~addr:i.addr ~size:i.size;
          grp.pending_line <- first
        end;
        grp.last_line <- (if i.taken then -1 else last)
      done
    end

let run ?next_line_prefetch src configs =
  Repro_util.Telemetry.with_span "sweep.fused" @@ fun () ->
  let n = Array.length configs in
  let caches =
    Array.map
      (fun c ->
        F.Icache.create ?next_line_prefetch ~policy:c.policy
          ~size_bytes:c.size_bytes ~line_bytes:c.line_bytes ~assoc:c.assoc ())
      configs
  in
  let groups = build_groups (Array.map (fun c -> c.line_bytes) configs) in
  let miss = Array.make (n * cells) 0 in
  let insts_s = ref 0 and insts_p = ref 0 in
  let feed =
    grouped_feed ~caches ~groups
      ~on_inst:(fun sec -> if sec = 0 then incr insts_s else incr insts_p)
      ~on_miss:(fun k sec ->
        let j = (k * cells) + sec in
        Array.unsafe_set miss j (Array.unsafe_get miss j + 1))
  in
  Tool.run_all_source src [ feed ];
  Array.iter (flush caches) groups;
  Array.mapi
    (fun k _ ->
      { cache = caches.(k);
        insts_s = !insts_s;
        insts_p = !insts_p;
        miss = Array.sub miss (k * cells) cells })
    configs

let cache t = t.cache

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

let accesses t = F.Icache.accesses t.cache
let usefulness t = F.Icache.usefulness t.cache
