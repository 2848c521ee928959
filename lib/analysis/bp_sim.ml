module Inst = Repro_isa.Inst

type cause = On_not_taken | On_taken_backward | On_taken_forward

let causes = [ On_not_taken; On_taken_backward; On_taken_forward ]

let cause_to_string = function
  | On_not_taken -> "not taken"
  | On_taken_backward -> "taken backward"
  | On_taken_forward -> "taken forward"

type static = Always_taken | Always_not_taken | Btfn

(* Either a stateful packed predictor (keyed by pc) or a static scheme
   that reads the decoded instruction. *)
type engine =
  | Packed of Repro_frontend.Predictor.t
  | Static of static

type t = {
  engine : engine;
  insts : Tool.Split.t;
  conds : Tool.Split.t;
  miss_nt : Tool.Split.t;
  miss_tb : Tool.Split.t;
  miss_tf : Tool.Split.t;
}

let make engine =
  { engine;
    insts = Tool.Split.create ();
    conds = Tool.Split.create ();
    miss_nt = Tool.Split.create ();
    miss_tb = Tool.Split.create ();
    miss_tf = Tool.Split.create () }

let create predictor = make (Packed predictor)
let create_static s = make (Static s)

let engine_predict t (i : Inst.t) =
  match t.engine with
  | Packed p -> p.Repro_frontend.Predictor.predict i.addr
  | Static Always_taken -> true
  | Static Always_not_taken -> false
  | Static Btfn -> i.target < i.addr

let engine_update t (i : Inst.t) =
  match t.engine with
  | Packed p -> p.Repro_frontend.Predictor.update i.addr i.taken
  | Static _ -> ()

let feed t (i : Inst.t) =
  if i.warmup then begin
    (* Warmup trains predictor state but is excluded from statistics. *)
    if i.kind = Inst.Cond_branch then engine_update t i
  end
  else begin
    let s = i.section in
    Tool.Split.incr t.insts s;
    if i.kind = Inst.Cond_branch then begin
      Tool.Split.incr t.conds s;
      let pred = engine_predict t i in
      if pred <> i.taken then begin
        if not i.taken then Tool.Split.incr t.miss_nt s
        else if i.target < i.addr then Tool.Split.incr t.miss_tb s
        else Tool.Split.incr t.miss_tf s
      end;
      engine_update t i
    end
  end

let observer t = feed t

(* Packed fast path: everything [feed] does on a non-conditional,
   non-warmup instruction is bump the per-section instruction count,
   and warmup non-conditionals do nothing at all — so the exact
   per-section totals are absorbed in bulk and only the conditional
   branches are replayed. [feed_conditional] is [feed] minus the
   instruction count (already absorbed). *)
let feed_conditional t (i : Inst.t) =
  if i.warmup then engine_update t i
  else begin
    let s = i.section in
    Tool.Split.incr t.conds s;
    let pred = engine_predict t i in
    if pred <> i.taken then begin
      if not i.taken then Tool.Split.incr t.miss_nt s
      else if i.target < i.addr then Tool.Split.incr t.miss_tb s
      else Tool.Split.incr t.miss_tf s
    end;
    engine_update t i
  end

let run_packed pt sims =
  let serial, parallel = Repro_isa.Packed_trace.counted pt in
  List.iter
    (fun t ->
      Tool.Split.add t.insts Repro_isa.Section.Serial serial;
      Tool.Split.add t.insts Repro_isa.Section.Parallel parallel)
    sims;
  let arr = Array.of_list sims in
  Repro_isa.Packed_trace.replay_conditionals pt (fun i ->
      for k = 0 to Array.length arr - 1 do
        feed_conditional (Array.unsafe_get arr k) i
      done)

let run_all src sims =
  match src with
  | Tool.Source.Stream _ -> Tool.run_all_source src (List.map observer sims)
  | Tool.Source.Packed pt -> run_packed pt sims

let predictor_name t =
  match t.engine with
  | Packed p -> p.Repro_frontend.Predictor.name
  | Static Always_taken -> "static-taken"
  | Static Always_not_taken -> "static-not-taken"
  | Static Btfn -> "static-btfn"

let scope_get split = function
  | Branch_mix.Total -> Tool.Split.total split
  | Branch_mix.Only s -> Tool.Split.get split s

let insts t scope = scope_get t.insts scope
let conditional_branches t scope = scope_get t.conds scope

let mispredictions t scope =
  scope_get t.miss_nt scope + scope_get t.miss_tb scope
  + scope_get t.miss_tf scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (mispredictions t scope) /. (float_of_int n /. 1000.0)

let misprediction_rate t scope =
  let n = conditional_branches t scope in
  if n = 0 then nan
  else float_of_int (mispredictions t scope) /. float_of_int n

let mpki_by_cause t scope cause =
  let n = insts t scope in
  if n = 0 then nan
  else
    let split =
      match cause with
      | On_not_taken -> t.miss_nt
      | On_taken_backward -> t.miss_tb
      | On_taken_forward -> t.miss_tf
    in
    float_of_int (scope_get split scope) /. (float_of_int n /. 1000.0)
