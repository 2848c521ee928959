module Inst = Repro_isa.Inst
module F = Repro_frontend

(* Histogram rows: the section (serial = 0, parallel = 1). *)
let rows = 2

type t = {
  entries : int;
  assoc : int;
  insts_s : int;
  insts_p : int;
  taken_s : int;
  taken_p : int;
  miss_s : int;
  miss_p : int;
}

let section_bit (i : Inst.t) =
  match i.section with Repro_isa.Section.Serial -> 0 | Repro_isa.Section.Parallel -> 1

let run src configs =
  Repro_util.Telemetry.with_span "sweep.fused" @@ fun () ->
  (* A BTB is an LRU cache of taken branches keyed by [pc lsr 1]: one
     stack per distinct set count serves every associativity at that
     count. Each entry carries the target last installed, so a hit on
     a stale target is a miss at every associativity. *)
  let stacks, stack_of =
    Lru_stack.plan ~payload:true ~rows
      (Array.map
         (fun (entries, assoc) -> (F.Btb.geometry ~entries ~assoc, assoc))
         configs)
  in
  let nstacks = Array.length stacks in
  let insts_s = ref 0 and insts_p = ref 0 in
  let taken_s = ref 0 and taken_p = ref 0 in
  (* One fetch redirect (taken non-syscall/non-return branch), all
     stacks; warm-up fills them without recording. *)
  let feed_redirect (i : Inst.t) =
    let pcx = i.addr lsr 1 in
    if i.warmup then
      for s = 0 to nstacks - 1 do
        ignore (Lru_stack.touch_target (Array.unsafe_get stacks s) pcx i.target)
      done
    else begin
      let sec = section_bit i in
      (if sec = 0 then incr taken_s else incr taken_p);
      for s = 0 to nstacks - 1 do
        let st = Array.unsafe_get stacks s in
        let d = Lru_stack.touch_target st pcx i.target in
        if d > 0 then Lru_stack.record st ~row:sec d
      done
    end
  in
  (match src with
  | Tool.Source.Packed pt ->
      let serial, parallel = Repro_isa.Packed_trace.counted pt in
      insts_s := serial;
      insts_p := parallel;
      Repro_isa.Packed_trace.replay_redirects pt feed_redirect
  | Tool.Source.Stream _ ->
      Tool.run_all_source src
        [ (fun (i : Inst.t) ->
            let redirect =
              i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
              && i.kind <> Inst.Return
            in
            if i.warmup then begin
              if redirect then feed_redirect i
            end
            else begin
              (if section_bit i = 0 then incr insts_s else incr insts_p);
              if redirect then feed_redirect i
            end) ]);
  Array.mapi
    (fun k (entries, assoc) ->
      let st = stacks.(stack_of.(k)) in
      { entries;
        assoc;
        insts_s = !insts_s;
        insts_p = !insts_p;
        taken_s = !taken_s;
        taken_p = !taken_p;
        miss_s = Lru_stack.misses st ~row:0 ~assoc;
        miss_p = Lru_stack.misses st ~row:1 ~assoc })
    configs

let entries t = t.entries
let assoc t = t.assoc

let scope_pair s p = function
  | Branch_mix.Total -> s + p
  | Branch_mix.Only Repro_isa.Section.Serial -> s
  | Branch_mix.Only Repro_isa.Section.Parallel -> p

let insts t scope = scope_pair t.insts_s t.insts_p scope
let taken_branches t scope = scope_pair t.taken_s t.taken_p scope
let misses t scope = scope_pair t.miss_s t.miss_p scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let miss_rate t scope =
  let n = taken_branches t scope in
  if n = 0 then nan else float_of_int (misses t scope) /. float_of_int n
