(** Fused multi-configuration BTB sweep (paper Fig. 7): every
    (entries, associativity) point simulated in one pass.

    Every taken branch looks its own address up in the BTB; a miss —
    either absent or present with a stale target, as happens for
    indirect branches — costs a fetch redirect and counts toward BTB
    MPKI. Taken branches (re)install their target. Syscalls are
    excluded (traps do not use the BTB), and so are returns: a return
    address stack predicts them, and in a single-threaded trace the
    RAS is exact. Warmup instructions fill the tables uncounted.

    The sweep never builds a {!Repro_frontend.Btb.t}. A BTB is an LRU
    cache of [(pc lsr 1, target)] entries, and LRU is a stack
    algorithm ({!Lru_stack}): one recency stack per distinct set count,
    as deep as the widest configuration at that count, gives every
    associativity at that count from one depth histogram. A redirect
    misses an [a]-way configuration when its depth is [a] or more, or
    when its entry holds a stale target (the target of the branch's
    previous redirect, the same in every configuration that still
    holds it). [test/test_sweep.ml] pins every result against an
    independent per-configuration simulator built on
    {!Repro_frontend.Btb}.

    Runs under a [sweep.fused] telemetry span. *)

type t
(** Per-configuration result. *)

val run : Tool.Source.t -> (int * int) array -> t array
(** [run src configs] with [(entries, assoc)] pairs; result [i]
    corresponds to [configs.(i)]. A bad geometry raises
    {!Repro_frontend.Btb.create}'s [Invalid_argument]. *)

val entries : t -> int
val assoc : t -> int
val insts : t -> Branch_mix.scope -> int
val taken_branches : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val miss_rate : t -> Branch_mix.scope -> float
