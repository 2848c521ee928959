(** Per-configuration branch-predictor oracle for the tests: drives one
    {!Repro_frontend.Predictor.t} (or a static scheme) with the
    conditional-branch stream, one instruction at a time, and reports
    MPKI normalized by *all* executed instructions, split by section
    and by mispredicted outcome. The fused {!Repro_analysis.Bp_sweep}
    must match it bit for bit. *)

module A = Repro_analysis

type t

val create : Repro_frontend.Predictor.t -> t
(** The predictor instance is owned (and trained) by this oracle. *)

val create_static : A.Bp_sweep.static -> t

val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit
val predictor_name : t -> string
val insts : t -> A.Branch_mix.scope -> int
val conditional_branches : t -> A.Branch_mix.scope -> int
val mispredictions : t -> A.Branch_mix.scope -> int
val mpki : t -> A.Branch_mix.scope -> float
val misprediction_rate : t -> A.Branch_mix.scope -> float
val mpki_by_cause : t -> A.Branch_mix.scope -> A.Bp_sweep.cause -> float
