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

(* Runtime engine per base predictor. The gshare family is lowered
   to a bare counter table plus an index mask: the global history
   register is shared across every table (see [run]), so a gshare
   config costs one xor, one mask and one counter poke per
   conditional instead of a closure call and a private history push.
   Other families keep their packed closure form. The loop predictor
   is not part of an engine: see [run]. *)
type engine =
  | Table of { table : F.Counter.t; mask : int }
  | Closure of F.Predictor.t
  | Static_e of static

(* Two specs share a base engine when their cores are the same: equal
   gshare widths, the same opaque maker (physically: a Zoo name's
   spec always carries the same maker), or the same static scheme. *)
let same_base a b =
  match (a, b) with
  | Named { core = F.Zoo.Gshare_core { history_bits = x }; _ },
    Named { core = F.Zoo.Gshare_core { history_bits = y }; _ } -> x = y
  | Named { core = F.Zoo.Opaque f; _ }, Named { core = F.Zoo.Opaque g; _ } ->
      f == g
  | Static x, Static y -> x = y
  | _ -> false

let realize = function
  | Named { core = F.Zoo.Gshare_core { history_bits }; _ } ->
      Table
        { table = F.Counter.create ~bits:2 ~entries:(1 lsl history_bits);
          mask = (1 lsl history_bits) - 1 }
  | Named { core = F.Zoo.Opaque mk; _ } -> Closure (mk ())
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
  (* [base.(k)]: config [k]'s engine, the first spec's with its core.
     An L- config reads its base's prediction unless the loop
     predictor is confident: the base trains on every outcome
     whatever the override says, so X and L-X share one. *)
  let base = Array.make n 0 and firsts = ref [] in
  Array.iteri
    (fun k spec ->
      match List.find_opt (fun (_, j) -> same_base specs.(j) spec) !firsts with
      | Some (b, _) -> base.(k) <- b
      | None ->
          base.(k) <- List.length !firsts;
          firsts := (base.(k), k) :: !firsts)
    specs;
  let engines =
    Array.of_list (List.rev_map (fun (_, k) -> realize specs.(k)) !firsts)
  in
  let nengines = Array.length engines in
  let loop =
    Array.map (function Named { loop; _ } -> loop | Static _ -> false) specs
  in
  (* A loop predictor's state depends only on the branch stream, so
     one instance serves every L- config. *)
  let lbp =
    if Array.exists Fun.id loop then Some (F.Loop_predictor.create ()) else None
  in
  let pred = Array.make nengines false in
  let miss = Array.make (n * cells) 0 in
  let insts_s = ref 0 and insts_p = ref 0 in
  let conds_s = ref 0 and conds_p = ref 0 in
  let ghr = ref 0 in
  (* Engine [e]'s prediction for [i]; the engine is then trained on
     the outcome. *)
  let step e (i : Inst.t) pcx =
    match Array.unsafe_get engines e with
    | Table { table; mask } ->
        let idx = (pcx lxor !ghr) land mask in
        let p = F.Counter.is_taken table idx in
        F.Counter.update table idx i.taken;
        p
    | Closure p -> p.F.Predictor.step i.addr i.taken
    | Static_e Always_taken -> true
    | Static_e Always_not_taken -> false
    | Static_e Btfn -> i.target < i.addr
  in
  (* The loop predictor's int-coded prediction for [i] (-1: no
     opinion); it is then trained on the outcome. *)
  let loop_step (i : Inst.t) =
    match lbp with
    | None -> -1
    | Some l ->
        let d = F.Loop_predictor.prediction l ~pc:i.addr in
        F.Loop_predictor.update l ~pc:i.addr ~taken:i.taken;
        d
  in
  (* One conditional branch, all configs; the history push is hoisted
     out of the per-config loop. *)
  let feed_cond (i : Inst.t) =
    let pcx = i.addr lsr 1 in
    if i.warmup then begin
      ignore (loop_step i);
      for e = 0 to nengines - 1 do
        ignore (step e i pcx)
      done
    end
    else begin
      let sec = section_bit i in
      (if sec = 0 then incr conds_s else incr conds_p);
      (* cause cell offset: decided once per event, not per config *)
      let cell =
        if not i.taken then sec
        else if i.target < i.addr then 2 + sec
        else 4 + sec
      in
      let lp = loop_step i in
      for e = 0 to nengines - 1 do
        Array.unsafe_set pred e (step e i pcx)
      done;
      for k = 0 to n - 1 do
        let p =
          if lp >= 0 && Array.unsafe_get loop k then lp = 1
          else Array.unsafe_get pred (Array.unsafe_get base k)
        in
        if p <> i.taken then begin
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
