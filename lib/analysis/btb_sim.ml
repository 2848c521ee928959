module Inst = Repro_isa.Inst

type t = {
  btb : Repro_frontend.Btb.t;
  insts : Tool.Split.t;
  taken : Tool.Split.t;
  misses : Tool.Split.t;
}

let create ~entries ~assoc =
  { btb = Repro_frontend.Btb.create ~entries ~assoc;
    insts = Tool.Split.create ();
    taken = Tool.Split.create ();
    misses = Tool.Split.create () }

let feed t (i : Inst.t) =
  if i.warmup then begin
    if i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
       && i.kind <> Inst.Return then
      Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
  end
  else begin
    let s = i.section in
    Tool.Split.incr t.insts s;
    if i.taken && Inst.is_branch i && i.kind <> Inst.Syscall
       && i.kind <> Inst.Return then begin
      Tool.Split.incr t.taken s;
      (match Repro_frontend.Btb.lookup t.btb ~pc:i.addr with
      | Some target when target = i.target -> ()
      | Some _ | None -> Tool.Split.incr t.misses s);
      Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
    end
  end

let observer t = feed t

(* Packed fast path: only taken non-syscall/non-return branches touch
   the BTB (exactly the packed trace's redirect index); per-section
   instruction totals are absorbed in bulk. *)
let feed_redirect t (i : Inst.t) =
  if i.warmup then Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
  else begin
    let s = i.section in
    Tool.Split.incr t.taken s;
    (match Repro_frontend.Btb.lookup t.btb ~pc:i.addr with
    | Some target when target = i.target -> ()
    | Some _ | None -> Tool.Split.incr t.misses s);
    Repro_frontend.Btb.insert t.btb ~pc:i.addr ~target:i.target
  end

let run_packed pt sims =
  let serial, parallel = Repro_isa.Packed_trace.counted pt in
  List.iter
    (fun t ->
      Tool.Split.add t.insts Repro_isa.Section.Serial serial;
      Tool.Split.add t.insts Repro_isa.Section.Parallel parallel)
    sims;
  let arr = Array.of_list sims in
  Repro_isa.Packed_trace.replay_redirects pt (fun i ->
      for k = 0 to Array.length arr - 1 do
        feed_redirect (Array.unsafe_get arr k) i
      done)

let run_all src sims =
  match src with
  | Tool.Source.Stream _ -> Tool.run_all_source src (List.map observer sims)
  | Tool.Source.Packed pt -> run_packed pt sims

let scope_get split = function
  | Branch_mix.Total -> Tool.Split.total split
  | Branch_mix.Only s -> Tool.Split.get split s

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
