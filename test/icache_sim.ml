module Inst = Repro_isa.Inst
module A = Repro_analysis
module Split = A.Tool.Split

type t = {
  cache : Repro_frontend.Icache.t;
  line_shift : int; (* log2 line_bytes: avoids a division per inst *)
  insts : Split.t;
  misses : Split.t;
  mutable last_line : int; (* line currently being consumed; -1 = none *)
}

let create ?next_line_prefetch ?policy ~size_bytes ~line_bytes ~assoc () =
  { cache =
      Repro_frontend.Icache.create ?next_line_prefetch ?policy ~size_bytes
        ~line_bytes ~assoc ();
    line_shift = Repro_util.Units.log2 line_bytes;
    insts = Split.create ();
    misses = Split.create ();
    last_line = -1 }

let feed t (i : Inst.t) =
  if i.warmup then begin
    (* Warm the cache without counting statistics. *)
    ignore (Repro_frontend.Icache.access t.cache ~addr:i.addr ~size:i.size);
    t.last_line <- -1
  end
  else begin
    let s = i.section in
    Split.incr t.insts s;
    let first = i.addr lsr t.line_shift
    and last = (i.addr + i.size - 1) lsr t.line_shift in
    (* Only access the cache when the fetch run enters a new line;
       within the current line, bytes are extracted for free. *)
    if first <> t.last_line || last <> t.last_line then begin
      if not (Repro_frontend.Icache.access t.cache ~addr:i.addr ~size:i.size)
      then Split.incr t.misses s
    end
    else Repro_frontend.Icache.consume t.cache ~addr:i.addr ~size:i.size;
    t.last_line <- (if i.taken then -1 else last)
  end

let observer t = feed t

let scope_get split = function
  | A.Branch_mix.Total -> Split.total split
  | A.Branch_mix.Only s -> Split.get split s

let insts t scope = scope_get t.insts scope
let misses t scope = scope_get t.misses scope

let mpki t scope =
  let n = insts t scope in
  if n = 0 then nan
  else float_of_int (misses t scope) /. (float_of_int n /. 1000.0)

let accesses t = Repro_frontend.Icache.accesses t.cache
let cache t = t.cache
let usefulness t = Repro_frontend.Icache.usefulness t.cache
