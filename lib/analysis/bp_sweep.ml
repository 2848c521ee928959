module Inst = Repro_isa.Inst
module F = Repro_frontend

type static = Always_taken | Always_not_taken | Btfn
type cause = On_not_taken | On_taken_backward | On_taken_forward

let causes = [ On_not_taken; On_taken_backward; On_taken_forward ]

type spec =
  | Named of { name : string; loop : bool; core : F.Zoo.core }
  | Static of static

let of_spec ~name (s : F.Zoo.spec) =
  Named { name; loop = s.loop; core = s.core }

let of_name name = of_spec ~name (F.Zoo.spec_by_name name)

let of_static s = Static s

let spec_name = function
  | Named { name; _ } -> name
  | Static Always_taken -> "static-taken"
  | Static Always_not_taken -> "static-not-taken"
  | Static Btfn -> "static-btfn"

(* Runtime engine per configuration. The gshare family is lowered to
   a bare counter table plus an index mask: the global history
   register is shared across every table (see [run]), so a gshare
   config costs one xor, one mask and one counter poke per
   conditional instead of two closure calls and a private history
   push. Other families keep their packed closure form. *)
type engine =
  | Table of {
      table : F.Counter.t;
      mask : int;
      lbp : F.Loop_predictor.t option;
    }
  | Closure of F.Predictor.t
  | Static_e of static

let realize = function
  | Named { loop; core; _ } -> (
      match core with
      | F.Zoo.Gshare_core { history_bits } ->
          Table
            { table = F.Counter.create ~bits:2 ~entries:(1 lsl history_bits);
              mask = (1 lsl history_bits) - 1;
              lbp = (if loop then Some (F.Loop_predictor.create ()) else None) }
      | F.Zoo.Opaque mk ->
          let p = mk () in
          Closure (if loop then F.Zoo.with_loop p else p))
  | Static s -> Static_e s

(* Miss matrix layout: config-major, 6 cells per config —
   [cause * 2 + section] with causes nt = 0, tb = 1, tf = 2 and
   sections serial = 0, parallel = 1. *)
let cells = 6

type t = {
  name : string;
  insts_s : int;
  insts_p : int;
  conds_s : int;
  conds_p : int;
  miss : int array; (* the 6 cells of this config *)
}

(* The shared history register is wide enough for the deepest gshare
   [Gshare.create] accepts (24 bits); each table applies its own
   mask, which matches a private [History.t] exactly because
   [(x lxor h) land m = x' lxor (h land m) land m]. *)
let ghr_mask = 0xFFFFFF

let section_bit (i : Inst.t) =
  match i.section with Repro_isa.Section.Serial -> 0 | Repro_isa.Section.Parallel -> 1

let run src specs =
  Repro_util.Telemetry.with_span "sweep.fused" @@ fun () ->
  let n = Array.length specs in
  let engines = Array.map realize specs in
  let miss = Array.make (n * cells) 0 in
  let insts_s = ref 0 and insts_p = ref 0 in
  let conds_s = ref 0 and conds_p = ref 0 in
  let ghr = ref 0 in
  (* Config [k]'s prediction for [i]; the config is then trained on
     the outcome. *)
  let step k (i : Inst.t) pcx =
    match Array.unsafe_get engines k with
    | Table { table; mask; lbp } ->
        let idx = (pcx lxor !ghr) land mask in
        let dir =
          match lbp with
          | Some l ->
              let d = F.Loop_predictor.predict l ~pc:i.addr in
              F.Loop_predictor.update l ~pc:i.addr ~taken:i.taken;
              d
          | None -> None
        in
        let pred =
          match dir with Some d -> d | None -> F.Counter.is_taken table idx
        in
        F.Counter.update table idx i.taken;
        pred
    | Closure p -> p.F.Predictor.step i.addr i.taken
    | Static_e Always_taken -> true
    | Static_e Always_not_taken -> false
    | Static_e Btfn -> i.target < i.addr
  in
  (* One conditional branch, all configs; the history push is hoisted
     out of the per-config loop. *)
  let feed_cond (i : Inst.t) =
    let pcx = i.addr lsr 1 in
    if i.warmup then
      for k = 0 to n - 1 do
        ignore (step k i pcx)
      done
    else begin
      let sec = section_bit i in
      (if sec = 0 then incr conds_s else incr conds_p);
      (* cause cell offset: decided once per event, not per config *)
      let cell =
        if not i.taken then sec
        else if i.target < i.addr then 2 + sec
        else 4 + sec
      in
      for k = 0 to n - 1 do
        if step k i pcx <> i.taken then begin
          let j = (k * cells) + cell in
          Array.unsafe_set miss j (Array.unsafe_get miss j + 1)
        end
      done
    end;
    ghr := ((!ghr lsl 1) lor (if i.taken then 1 else 0)) land ghr_mask
  in
  (match src with
  | Tool.Source.Packed pt ->
      let serial, parallel = Repro_isa.Packed_trace.counted pt in
      insts_s := serial;
      insts_p := parallel;
      Repro_isa.Packed_trace.replay_conditionals pt feed_cond
  | Tool.Source.Stream _ ->
      Tool.run_all_source src
        [ (fun i ->
            if i.Inst.warmup then begin
              if i.Inst.kind = Inst.Cond_branch then feed_cond i
            end
            else begin
              (if section_bit i = 0 then incr insts_s else incr insts_p);
              if i.Inst.kind = Inst.Cond_branch then feed_cond i
            end) ]);
  Array.mapi
    (fun k spec ->
      { name = spec_name spec;
        insts_s = !insts_s;
        insts_p = !insts_p;
        conds_s = !conds_s;
        conds_p = !conds_p;
        miss = Array.sub miss (k * cells) cells })
    specs

let predictor_name t = t.name

let scope_pair s p = function
  | Branch_mix.Total -> s + p
  | Branch_mix.Only Repro_isa.Section.Serial -> s
  | Branch_mix.Only Repro_isa.Section.Parallel -> p

let insts t scope = scope_pair t.insts_s t.insts_p scope
let conditional_branches t scope = scope_pair t.conds_s t.conds_p scope

let cause_base = function
  | On_not_taken -> 0
  | On_taken_backward -> 2
  | On_taken_forward -> 4

let misses_of_cause t cause scope =
  let b = cause_base cause in
  scope_pair t.miss.(b) t.miss.(b + 1) scope

let mispredictions t scope =
  List.fold_left
    (fun acc c -> acc + misses_of_cause t c scope)
    0 causes

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
  else float_of_int (misses_of_cause t cause scope) /. (float_of_int n /. 1000.0)
