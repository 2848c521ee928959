module Telemetry = Repro_util.Telemetry
module Faults = Repro_util.Faults

let default_chunk_capacity = 65536

(* Flag byte layout: bits 0-2 kind, bit 3 taken, bit 4 parallel
   section, bit 5 warmup. *)

let kind_to_int = function
  | Inst.Plain -> 0
  | Inst.Cond_branch -> 1
  | Inst.Uncond_direct -> 2
  | Inst.Indirect_branch -> 3
  | Inst.Call -> 4
  | Inst.Indirect_call -> 5
  | Inst.Return -> 6
  | Inst.Syscall -> 7

let kinds =
  [| Inst.Plain; Inst.Cond_branch; Inst.Uncond_direct; Inst.Indirect_branch;
     Inst.Call; Inst.Indirect_call; Inst.Return; Inst.Syscall |]

type chunk = {
  len : int;
  addr : int array;
  target : int array;
  size : Bytes.t;
  flags : Bytes.t;
  conds : int array;  (* positions of Cond_branch entries *)
  redirects : int array;  (* positions of taken non-sys/non-ret branches *)
  c_serial : int;  (* non-warmup serial instructions in this chunk *)
  c_parallel : int;
}

type t = { chunks : chunk array; total : int }

(* Growing capture state: arrays of [cap] entries filled to [fill],
   sealed into an immutable chunk when full. *)
type builder = {
  cap : int;
  mutable fill : int;
  mutable b_addr : int array;
  mutable b_target : int array;
  mutable b_size : Bytes.t;
  mutable b_flags : Bytes.t;
  mutable sealed : chunk list;  (* reverse order *)
  mutable total : int;
}

let is_redirect_flags f =
  (* taken, any branch kind except Syscall and Return *)
  let kind = f land 7 and taken = f land 8 <> 0 in
  taken && kind <> 0 && kind <> kind_to_int Inst.Return
  && kind <> kind_to_int Inst.Syscall

let seal b =
  if b.fill > 0 then begin
    let len = b.fill in
    let n_cond = ref 0 and n_redir = ref 0 in
    let serial = ref 0 and parallel = ref 0 in
    for i = 0 to len - 1 do
      let f = Char.code (Bytes.unsafe_get b.b_flags i) in
      if f land 7 = 1 then incr n_cond;
      if is_redirect_flags f then incr n_redir;
      if f land 32 = 0 then
        if f land 16 = 0 then incr serial else incr parallel
    done;
    let conds = Array.make !n_cond 0 and redirects = Array.make !n_redir 0 in
    let ci = ref 0 and ri = ref 0 in
    for i = 0 to len - 1 do
      let f = Char.code (Bytes.unsafe_get b.b_flags i) in
      if f land 7 = 1 then begin
        conds.(!ci) <- i;
        incr ci
      end;
      if is_redirect_flags f then begin
        redirects.(!ri) <- i;
        incr ri
      end
    done;
    let trim_int a = if len = b.cap then a else Array.sub a 0 len in
    let trim_bytes s = if len = b.cap then s else Bytes.sub s 0 len in
    b.sealed <-
      { len;
        addr = trim_int b.b_addr;
        target = trim_int b.b_target;
        size = trim_bytes b.b_size;
        flags = trim_bytes b.b_flags;
        conds;
        redirects;
        c_serial = !serial;
        c_parallel = !parallel }
      :: b.sealed;
    b.total <- b.total + len;
    b.fill <- 0;
    (* Fresh buffers: the sealed chunk owns the old ones when full;
       a trimmed seal copied, but a full seal must not be aliased. *)
    b.b_addr <- Array.make b.cap 0;
    b.b_target <- Array.make b.cap 0;
    b.b_size <- Bytes.make b.cap '\000';
    b.b_flags <- Bytes.make b.cap '\000'
  end

let append b (i : Inst.t) =
  if b.fill = b.cap then seal b;
  let n = b.fill in
  if i.size < 1 || i.size > 255 then
    invalid_arg "Packed_trace.of_trace: instruction size outside 1..255";
  b.b_addr.(n) <- i.addr;
  b.b_target.(n) <- i.target;
  Bytes.unsafe_set b.b_size n (Char.unsafe_chr i.size);
  let f =
    kind_to_int i.kind
    lor (if i.taken then 8 else 0)
    lor (match i.section with Section.Serial -> 0 | Section.Parallel -> 16)
    lor if i.warmup then 32 else 0
  in
  Bytes.unsafe_set b.b_flags n (Char.unsafe_chr f);
  b.fill <- n + 1

let length (t : t) = t.total

let counted t =
  Array.fold_left
    (fun (s, p) c -> (s + c.c_serial, p + c.c_parallel))
    (0, 0) t.chunks

(* Two words + two bytes per instruction, one word per indexed
   branch position. *)
let byte_size t =
  Array.fold_left
    (fun acc c ->
      acc + (8 * (2 * c.len)) + (2 * c.len)
      + (8 * (Array.length c.conds + Array.length c.redirects)))
    0 t.chunks

let of_trace ?(chunk_capacity = default_chunk_capacity) trace =
  if chunk_capacity < 1 then invalid_arg "Packed_trace.of_trace: chunk";
  Telemetry.with_span "trace.capture" (fun () ->
      (* Fault-torture site: a simulated capture failure here is
         Transient, so a supervised caller retries the whole capture
         rather than keeping a half-built pack. *)
      Faults.inject "trace.capture";
      let b =
        { cap = chunk_capacity;
          fill = 0;
          b_addr = Array.make chunk_capacity 0;
          b_target = Array.make chunk_capacity 0;
          b_size = Bytes.make chunk_capacity '\000';
          b_flags = Bytes.make chunk_capacity '\000';
          sealed = [];
          total = 0 }
      in
      Trace.iter trace (append b);
      seal b;
      let t =
        { chunks = Array.of_list (List.rev b.sealed); total = b.total }
      in
      Telemetry.add "trace.insts" t.total;
      Telemetry.add "trace.bytes" (byte_size t);
      t)

(* Decode entry [i] of [c] into the reused record. *)
let decode (c : chunk) i (inst : Inst.t) =
  let f = Char.code (Bytes.unsafe_get c.flags i) in
  inst.Inst.addr <- Array.unsafe_get c.addr i;
  inst.Inst.target <- Array.unsafe_get c.target i;
  inst.Inst.size <- Char.code (Bytes.unsafe_get c.size i);
  inst.Inst.kind <- Array.unsafe_get kinds (f land 7);
  inst.Inst.taken <- f land 8 <> 0;
  inst.Inst.section <-
    (if f land 16 = 0 then Section.Serial else Section.Parallel);
  inst.Inst.warmup <- f land 32 <> 0

let replay t f =
  Telemetry.with_span "trace.replay" (fun () ->
      let inst = Inst.make ~addr:0 ~size:1 () in
      Array.iter
        (fun c ->
          for i = 0 to c.len - 1 do
            decode c i inst;
            f inst
          done)
        t.chunks)

let replay_index index t f =
  Telemetry.with_span "trace.replay" (fun () ->
      let inst = Inst.make ~addr:0 ~size:1 () in
      Array.iter
        (fun c ->
          let idx = index c in
          for i = 0 to Array.length idx - 1 do
            decode c (Array.unsafe_get idx i) inst;
            f inst
          done)
        t.chunks)

let replay_conditionals t f = replay_index (fun c -> c.conds) t f
let replay_redirects t f = replay_index (fun c -> c.redirects) t f

let to_trace t = Trace.make (fun f -> replay t f)
