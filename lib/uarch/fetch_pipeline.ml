module Inst = Repro_isa.Inst
module F = Repro_frontend

let bp_bubbles = 12
let btb_bubbles = 7
let icache_bubbles = 16

type t = {
  fetch_bytes : int;
  bp : F.Predictor.t;
  btb : F.Btb.t;
  ras : F.Ras.t;
  icache : F.Icache.t;
  mutable line : int; (* current fetch line; -1 forces a new access *)
  mutable slot_bytes : int; (* bytes already delivered this cycle *)
  mutable insts : int;
  mutable fetch_cycles : float;
  mutable bp_cycles : float;
  mutable btb_cycles : float;
  mutable icache_cycles : float;
}

let create ?(fetch_bytes = 16) (cfg : Frontend_config.t) =
  if fetch_bytes < 4 then invalid_arg "Fetch_pipeline.create";
  { fetch_bytes;
    bp = Frontend_config.make_bp cfg;
    btb = F.Btb.create ~entries:cfg.btb_entries ~assoc:cfg.btb_assoc;
    ras = F.Ras.create ~depth:16 ();
    icache =
      F.Icache.create ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.icache_line
        ~assoc:cfg.icache_assoc ();
    line = -1;
    slot_bytes = 0;
    insts = 0;
    fetch_cycles = 0.0;
    bp_cycles = 0.0;
    btb_cycles = 0.0;
    icache_cycles = 0.0 }

let new_cycle t =
  t.fetch_cycles <- t.fetch_cycles +. 1.0;
  t.slot_bytes <- 0

let redirect t = t.line <- -1

(* Deliver one instruction's bytes through the fetch unit, accessing
   the I-cache on line transitions. *)
let deliver t (i : Inst.t) =
  let line_bytes = F.Icache.line_bytes t.icache in
  let first = i.addr / line_bytes and last = (i.addr + i.size - 1) / line_bytes in
  if first <> t.line || last <> t.line then begin
    (* new line: new cycle and a cache access *)
    new_cycle t;
    if not (F.Icache.access t.icache ~addr:i.addr ~size:i.size) then
      t.icache_cycles <- t.icache_cycles +. float_of_int icache_bubbles;
    t.line <- last;
    t.slot_bytes <- i.size
  end
  else begin
    F.Icache.consume t.icache ~addr:i.addr ~size:i.size;
    if t.slot_bytes + i.size > t.fetch_bytes then begin
      new_cycle t;
      t.slot_bytes <- i.size
    end
    else t.slot_bytes <- t.slot_bytes + i.size
  end

(* Cost of a control transfer once fetch reaches it. *)
let control t (i : Inst.t) =
  match i.kind with
  | Inst.Plain -> ()
  | Inst.Cond_branch ->
      if t.bp.F.Predictor.step i.addr i.taken <> i.taken then begin
        t.bp_cycles <- t.bp_cycles +. float_of_int bp_bubbles;
        redirect t
      end
      else if i.taken then begin
        (match F.Btb.lookup t.btb ~pc:i.addr with
        | Some target when target = i.target -> ()
        | Some _ | None ->
            t.btb_cycles <- t.btb_cycles +. float_of_int btb_bubbles);
        F.Btb.insert t.btb ~pc:i.addr ~target:i.target;
        redirect t
      end
  | Inst.Uncond_direct | Inst.Indirect_branch ->
      (match F.Btb.lookup t.btb ~pc:i.addr with
      | Some target when target = i.target -> ()
      | Some _ | None -> t.btb_cycles <- t.btb_cycles +. float_of_int btb_bubbles);
      F.Btb.insert t.btb ~pc:i.addr ~target:i.target;
      redirect t
  | Inst.Call | Inst.Indirect_call ->
      F.Ras.push t.ras (i.addr + i.size);
      (match F.Btb.lookup t.btb ~pc:i.addr with
      | Some target when target = i.target -> ()
      | Some _ | None -> t.btb_cycles <- t.btb_cycles +. float_of_int btb_bubbles);
      F.Btb.insert t.btb ~pc:i.addr ~target:i.target;
      redirect t
  | Inst.Return ->
      (match F.Ras.pop t.ras with
      | Some target when target = i.target -> ()
      | Some _ | None -> t.btb_cycles <- t.btb_cycles +. float_of_int btb_bubbles);
      redirect t
  | Inst.Syscall ->
      (* Trap: pipeline drain, charged like a flush. *)
      t.bp_cycles <- t.bp_cycles +. float_of_int bp_bubbles;
      redirect t

let feed t (i : Inst.t) =
  if i.warmup then begin
    (* Warm structures without counting cycles. *)
    if i.kind = Inst.Cond_branch then ignore (t.bp.F.Predictor.step i.addr i.taken);
    ignore (F.Icache.access t.icache ~addr:i.addr ~size:i.size)
  end
  else begin
    t.insts <- t.insts + 1;
    deliver t i;
    control t i
  end

let observer t = feed t
let instructions t = t.insts
let cycles t = t.fetch_cycles +. t.bp_cycles +. t.btb_cycles +. t.icache_cycles

let frontend_cpi t =
  if t.insts = 0 then nan else cycles t /. float_of_int t.insts

let breakdown t =
  [ ("fetch", t.fetch_cycles); ("bp-flush", t.bp_cycles);
    ("btb-redirect", t.btb_cycles); ("icache-miss", t.icache_cycles) ]
