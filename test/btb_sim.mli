(** Per-configuration BTB oracle for the tests, one instruction at a
    time: every taken branch other than a syscall or a return looks
    its own address up and (re)installs its target; a miss or a stale
    target counts toward BTB MPKI. The fused
    {!Repro_analysis.Btb_sweep} must match it bit for bit. *)

module A = Repro_analysis

type t

val create : entries:int -> assoc:int -> t
val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit
val insts : t -> A.Branch_mix.scope -> int
val taken_branches : t -> A.Branch_mix.scope -> int
val misses : t -> A.Branch_mix.scope -> int
val mpki : t -> A.Branch_mix.scope -> float
val miss_rate : t -> A.Branch_mix.scope -> float
