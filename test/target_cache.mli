(** Indirect-branch target cache, a model the tests exercise and no
    figure sweeps: a history-indexed target predictor
    (the two-level scheme of Chang, Hao & Patt, and the ancestor of
    ITTAGE). Where a BTB can only replay an indirect branch's *last*
    target, a target cache indexes by branch address XOR recent target
    history, separating per-callsite target patterns.

    The paper notes indirect branches are rare in HPC (≤0.5% of
    branches on average, up to 2.5% in CoEVP); this structure is how
    a front-end would cover benchmarks like CoEVP, md, kdtree, UA and
    EP if they mattered more. *)

type t

val create : ?entries:int -> ?hist_targets:int -> unit -> t
(** [entries] (power of two, default 512) target slots; the index
    mixes the last [hist_targets] (default 4) indirect targets. *)

val predict : t -> pc:int -> int option
(** Predicted target; [None] for a cold slot. *)

val update : t -> pc:int -> target:int -> unit
(** Record the resolved target and advance the target history. *)

val storage_bits : t -> int
