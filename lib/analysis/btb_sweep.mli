(** Fused multi-configuration BTB sweep (paper Fig. 7): every
    (entries, associativity) point simulated in one pass.

    Every taken branch looks its own address up in the BTB; a miss —
    either absent or present with a stale target, as happens for
    indirect branches — costs a fetch redirect and counts toward BTB
    MPKI. Taken branches (re)install their target. Syscalls are
    excluded (traps do not use the BTB), and so are returns: a return
    address stack predicts them, and in a single-threaded trace the
    RAS is exact. Warmup instructions fill the tables uncounted.

    All configurations with the same set count split the branch
    address into the same (set index, tag) pair, so the
    decomposition runs once per distinct geometry per redirect and
    every same-geometry table is driven through
    {!Repro_frontend.Btb.lookup_at}/[insert_at] with the shared
    pair. Miss counts land in a flat config-major matrix.
    [test/test_sweep.ml] pins every result against an independent
    per-configuration simulator.

    Runs under a [sweep.fused] telemetry span. *)

type t
(** Per-configuration result. *)

val run : Tool.Source.t -> (int * int) array -> t array
(** [run src configs] with [(entries, assoc)] pairs; result [i]
    corresponds to [configs.(i)]. *)

val entries : t -> int
val assoc : t -> int
val insts : t -> Branch_mix.scope -> int
val taken_branches : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val miss_rate : t -> Branch_mix.scope -> float
