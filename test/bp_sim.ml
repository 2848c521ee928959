module Inst = Repro_isa.Inst
module A = Repro_analysis
module Split = A.Tool.Split

(* Either a stateful predictor (keyed by pc) or a static scheme that
   reads the decoded instruction. *)
type engine =
  | Dynamic of Repro_frontend.Predictor.t
  | Static of A.Bp_sweep.static

type t = {
  engine : engine;
  insts : Split.t;
  conds : Split.t;
  miss_nt : Split.t;
  miss_tb : Split.t;
  miss_tf : Split.t;
}

let make engine =
  { engine;
    insts = Split.create ();
    conds = Split.create ();
    miss_nt = Split.create ();
    miss_tb = Split.create ();
    miss_tf = Split.create () }

let create predictor = make (Dynamic predictor)
let create_static s = make (Static s)

(* The prediction for [i], made before the engine trains on it. *)
let engine_step t (i : Inst.t) =
  match t.engine with
  | Dynamic p -> p.Repro_frontend.Predictor.step i.addr i.taken
  | Static Always_taken -> true
  | Static Always_not_taken -> false
  | Static Btfn -> i.target < i.addr

let feed t (i : Inst.t) =
  if i.warmup then begin
    (* Warmup trains predictor state but is excluded from statistics. *)
    if i.kind = Inst.Cond_branch then ignore (engine_step t i)
  end
  else begin
    let s = i.section in
    Split.incr t.insts s;
    if i.kind = Inst.Cond_branch then begin
      Split.incr t.conds s;
      if engine_step t i <> i.taken then begin
        if not i.taken then Split.incr t.miss_nt s
        else if i.target < i.addr then Split.incr t.miss_tb s
        else Split.incr t.miss_tf s
      end
    end
  end

let observer t = feed t

let predictor_name t =
  match t.engine with
  | Dynamic p -> p.Repro_frontend.Predictor.name
  | Static Always_taken -> "static-taken"
  | Static Always_not_taken -> "static-not-taken"
  | Static Btfn -> "static-btfn"

let scope_get split = function
  | A.Branch_mix.Total -> Split.total split
  | A.Branch_mix.Only s -> Split.get split s

let insts t scope = scope_get t.insts scope
let conditional_branches t scope = scope_get t.conds scope

let mispredictions t scope =
  scope_get t.miss_nt scope + scope_get t.miss_tb scope
  + scope_get t.miss_tf scope

let per_kilo t scope n =
  let insts = insts t scope in
  if insts = 0 then nan else float_of_int n /. (float_of_int insts /. 1000.0)

let mpki t scope = per_kilo t scope (mispredictions t scope)

let misprediction_rate t scope =
  let n = conditional_branches t scope in
  if n = 0 then nan
  else float_of_int (mispredictions t scope) /. float_of_int n

let mpki_by_cause t scope cause =
  per_kilo t scope
    (scope_get
       (match (cause : A.Bp_sweep.cause) with
       | On_not_taken -> t.miss_nt
       | On_taken_backward -> t.miss_tb
       | On_taken_forward -> t.miss_tf)
       scope)
