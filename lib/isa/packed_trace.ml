module Telemetry = Repro_util.Telemetry
module Faults = Repro_util.Faults

let default_chunk_capacity = 65536

(* Flag byte layout: bits 0-2 kind, bit 3 taken, bit 4 parallel
   section, bit 5 warmup, bit 6 explicit (the entry's address and
   target are stored in the chunk's 32-bit columns). *)

let taken_bit = 8
let parallel_bit = 16
let warmup_bit = 32
let explicit_bit = 64

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

(* A plain instruction is implicit when its target is 0 and its
   address is the predicted one: the previous entry's taken target,
   else its fall-through (0 at the start of a chunk). Every other
   entry — each branch, each discontinuity — is explicit: its address
   and target sit in the [addr]/[target] columns at its explicit rank,
   and [pos] maps the rank back to the chunk position. [conds] and
   [redirects] list explicit ranks, so the filtered replays touch
   only the entries they decode. All indexes are 16-bit, which is why
   a chunk holds at most 65 536 instructions. *)
type chunk = {
  len : int;
  size : Bytes.t;  (* one byte per instruction *)
  flags : Bytes.t;  (* one byte per instruction *)
  addr : Bytes.t;  (* 32-bit per explicit entry *)
  target : Bytes.t;  (* 32-bit per explicit entry *)
  pos : Bytes.t;  (* 16-bit chunk position per explicit entry *)
  conds : Bytes.t;  (* 16-bit explicit ranks of Cond_branch entries *)
  redirects : Bytes.t;  (* ... of taken non-sys/non-ret branches *)
  c_serial : int;  (* non-warmup serial instructions in this chunk *)
  c_parallel : int;
}

type t = { chunks : chunk array; total : int }

(* Column access in native byte order: a capture never leaves the
   process that made it. Reads skip the bounds check; every index is
   in range by construction. *)
external get32_raw : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get16_raw : Bytes.t -> int -> int = "%caml_bytes_get16u"

let get32 b k = Int32.to_int (get32_raw b (4 * k)) land 0xFFFF_FFFF
let set32 b k v = Bytes.set_int32_ne b (4 * k) (Int32.of_int v)
let get16 b k = get16_raw b (2 * k)
let set16 b k v = Bytes.set_uint16_ne b (2 * k) v

(* Address predicted for the entry after one at [addr]. *)
let[@inline] next_pc ~addr ~size ~target f =
  if f land taken_bit <> 0 then target else addr + size

(* Growing capture state: columns sized for a full chunk, filled to
   [fill] instructions and [n_exp] explicit entries, copied into an
   immutable chunk when full. *)
type builder = {
  cap : int;
  mutable fill : int;
  mutable n_exp : int;
  mutable pc : int;
  b_size : Bytes.t;
  b_flags : Bytes.t;
  b_addr : Bytes.t;
  b_target : Bytes.t;
  b_pos : Bytes.t;
  mutable sealed : chunk list;  (* reverse order *)
  mutable total : int;
}

let is_redirect_flags f =
  (* taken, any branch kind except Syscall and Return *)
  let kind = f land 7 in
  f land taken_bit <> 0 && kind <> 0
  && kind <> kind_to_int Inst.Return
  && kind <> kind_to_int Inst.Syscall

let seal b =
  if b.fill > 0 then begin
    let len = b.fill and n_exp = b.n_exp in
    let flag_at k = Char.code (Bytes.unsafe_get b.b_flags (get16 b.b_pos k)) in
    let index keep =
      let n = ref 0 in
      for k = 0 to n_exp - 1 do
        if keep (flag_at k) then incr n
      done;
      let idx = Bytes.create (2 * !n) in
      let j = ref 0 in
      for k = 0 to n_exp - 1 do
        if keep (flag_at k) then begin
          set16 idx !j k;
          incr j
        end
      done;
      idx
    in
    let serial = ref 0 and parallel = ref 0 in
    for i = 0 to len - 1 do
      let f = Char.code (Bytes.unsafe_get b.b_flags i) in
      if f land warmup_bit = 0 then
        if f land parallel_bit = 0 then incr serial else incr parallel
    done;
    b.sealed <-
      { len;
        size = Bytes.sub b.b_size 0 len;
        flags = Bytes.sub b.b_flags 0 len;
        addr = Bytes.sub b.b_addr 0 (4 * n_exp);
        target = Bytes.sub b.b_target 0 (4 * n_exp);
        pos = Bytes.sub b.b_pos 0 (2 * n_exp);
        conds = index (fun f -> f land 7 = kind_to_int Inst.Cond_branch);
        redirects = index is_redirect_flags;
        c_serial = !serial;
        c_parallel = !parallel }
      :: b.sealed;
    b.total <- b.total + len;
    b.fill <- 0;
    b.n_exp <- 0;
    b.pc <- 0
  end

let append b (i : Inst.t) =
  if b.fill = b.cap then seal b;
  let n = b.fill in
  if i.size < 1 || i.size > 255 then
    invalid_arg "Packed_trace.of_trace: instruction size outside 1..255";
  if (i.addr lor i.target) lsr 32 <> 0 then
    invalid_arg "Packed_trace.of_trace: address outside 0..0xFFFFFFFF";
  let f =
    kind_to_int i.kind
    lor (if i.taken then taken_bit else 0)
    lor (match i.section with
        | Section.Serial -> 0
        | Section.Parallel -> parallel_bit)
    lor if i.warmup then warmup_bit else 0
  in
  let f =
    if i.kind = Inst.Plain && i.target = 0 && i.addr = b.pc then f
    else begin
      set32 b.b_addr b.n_exp i.addr;
      set32 b.b_target b.n_exp i.target;
      set16 b.b_pos b.n_exp n;
      b.n_exp <- b.n_exp + 1;
      f lor explicit_bit
    end
  in
  Bytes.unsafe_set b.b_size n (Char.unsafe_chr i.size);
  Bytes.unsafe_set b.b_flags n (Char.unsafe_chr f);
  b.pc <- next_pc ~addr:i.addr ~size:i.size ~target:i.target f;
  b.fill <- n + 1

let length (t : t) = t.total

let counted t =
  Array.fold_left
    (fun (s, p) c -> (s + c.c_serial, p + c.c_parallel))
    (0, 0) t.chunks

(* Heap words of the representation: a [Bytes.t] of n bytes is a
   header plus n/8 + 1 words (the padding byte), a chunk record a
   header plus its ten fields, and [t] plus its chunk array headers
   and slots. *)
let byte_size t =
  let bytes b = 2 + (Bytes.length b / 8) in
  let chunk c =
    11 + bytes c.size + bytes c.flags + bytes c.addr + bytes c.target
    + bytes c.pos + bytes c.conds + bytes c.redirects
  in
  Sys.word_size / 8
  * Array.fold_left (fun acc c -> acc + chunk c) (4 + Array.length t.chunks)
      t.chunks

let of_trace ?(chunk_capacity = default_chunk_capacity) trace =
  if chunk_capacity < 1 || chunk_capacity > 65536 then
    invalid_arg "Packed_trace.of_trace: chunk capacity outside 1..65536";
  Telemetry.with_span "trace.capture" (fun () ->
      (* Fault-torture site: a simulated capture failure here is
         Transient, so a supervised caller retries the whole capture
         rather than keeping a half-built pack. *)
      Faults.inject "trace.capture";
      let b =
        { cap = chunk_capacity;
          fill = 0;
          n_exp = 0;
          pc = 0;
          b_size = Bytes.create chunk_capacity;
          b_flags = Bytes.create chunk_capacity;
          b_addr = Bytes.create (4 * chunk_capacity);
          b_target = Bytes.create (4 * chunk_capacity);
          b_pos = Bytes.create (2 * chunk_capacity);
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

(* Decode entry [i] of [c], whose address and target are known, into
   the reused record. *)
let[@inline] decode (c : chunk) i ~addr ~target (inst : Inst.t) =
  let f = Char.code (Bytes.unsafe_get c.flags i) in
  inst.Inst.addr <- addr;
  inst.Inst.target <- target;
  inst.Inst.size <- Char.code (Bytes.unsafe_get c.size i);
  inst.Inst.kind <- Array.unsafe_get kinds (f land 7);
  inst.Inst.taken <- f land taken_bit <> 0;
  inst.Inst.section <-
    (if f land parallel_bit = 0 then Section.Serial else Section.Parallel);
  inst.Inst.warmup <- f land warmup_bit <> 0

let replay t f =
  Telemetry.with_span "trace.replay" (fun () ->
      let inst = Inst.make ~addr:0 ~size:1 () in
      Array.iter
        (fun c ->
          let pc = ref 0 and k = ref 0 in
          for i = 0 to c.len - 1 do
            let fl = Char.code (Bytes.unsafe_get c.flags i) in
            let addr, target =
              if fl land explicit_bit = 0 then (!pc, 0)
              else begin
                let k' = !k in
                k := k' + 1;
                (get32 c.addr k', get32 c.target k')
              end
            in
            decode c i ~addr ~target inst;
            pc := next_pc ~addr ~size:inst.Inst.size ~target fl;
            f inst
          done)
        t.chunks)

let replay_index index t f =
  Telemetry.with_span "trace.replay" (fun () ->
      let inst = Inst.make ~addr:0 ~size:1 () in
      Array.iter
        (fun c ->
          let idx = index c in
          for j = 0 to (Bytes.length idx / 2) - 1 do
            let k = get16 idx j in
            decode c (get16 c.pos k) ~addr:(get32 c.addr k)
              ~target:(get32 c.target k) inst;
            f inst
          done)
        t.chunks)

let replay_conditionals t f = replay_index (fun c -> c.conds) t f
let replay_redirects t f = replay_index (fun c -> c.redirects) t f

let to_trace t = Trace.make (fun f -> replay t f)
