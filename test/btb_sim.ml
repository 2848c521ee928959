module Inst = Repro_isa.Inst
module A = Repro_analysis
module Split = A.Tool.Split

type t = {
  btb : Repro_frontend.Btb.t;
  insts : Split.t;
  taken : Split.t;
  misses : Split.t;
}

let create ~entries ~assoc =
  { btb = Repro_frontend.Btb.create ~entries ~assoc;
    insts = Split.create ();
    taken = Split.create ();
    misses = Split.create () }

let feed t (i : Inst.t) =
  let redirect =
    i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
    && i.kind <> Inst.Return
  in
  if i.warmup then begin
    if redirect then Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
  end
  else begin
    let s = i.section in
    Split.incr t.insts s;
    if redirect then begin
      Split.incr t.taken s;
      (match Repro_frontend.Btb.lookup t.btb ~pc:i.addr with
      | Some target when target = i.target -> ()
      | Some _ | None -> Split.incr t.misses s);
      Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
    end
  end

let observer t = feed t

let scope_get split = function
  | A.Branch_mix.Total -> Split.total split
  | A.Branch_mix.Only s -> Split.get split s

let insts t scope = scope_get t.insts scope
let taken_branches t scope = scope_get t.taken scope
let misses t scope = scope_get t.misses scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let miss_rate t scope =
  let n = taken_branches t scope in
  if n = 0 then nan else float_of_int (misses t scope) /. float_of_int n
