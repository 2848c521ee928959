(** Per-configuration I-cache oracle for the tests, one instruction at
    a time: instructions are extracted from the current line without
    re-accessing the cache until the run crosses into a new line
    (sequentially or via a taken branch); each new line is one cache
    access. The fused {!Repro_analysis.Icache_sweep} must match it bit
    for bit. *)

module A = Repro_analysis

type t

val create :
  ?next_line_prefetch:bool -> ?policy:Repro_frontend.Replacement.spec ->
  size_bytes:int -> line_bytes:int -> assoc:int -> unit -> t
(** [policy] defaults to {!Repro_frontend.Replacement.Lru}. *)

val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit
val insts : t -> A.Branch_mix.scope -> int
val misses : t -> A.Branch_mix.scope -> int
val mpki : t -> A.Branch_mix.scope -> float
val accesses : t -> int
val usefulness : t -> float

val cache : t -> Repro_frontend.Icache.t
(** The underlying cache (prefetch counters, storage). *)
