(** Fused multi-configuration BTB sweep (paper Fig. 7): every
    (entries, associativity) point simulated in one pass.

    All configurations with the same set count split the branch
    address into the same (set index, tag) pair, so the
    decomposition runs once per distinct geometry per redirect and
    every same-geometry table is driven through
    {!Repro_frontend.Btb.lookup_at}/[insert_at] with the shared
    pair. Miss counts land in a flat config-major matrix. Results
    are bit-identical to per-config {!Btb_sim} runs (pinned by the
    qcheck differential in [test/test_sweep.ml]).

    Runs under a [sweep.fused] telemetry span. *)

type t
(** Per-configuration result; accessors mirror {!Btb_sim}. *)

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
