(** Fused multi-configuration branch-predictor sweep (paper Figs. 5
    and 6): every configuration simulated in one pass over the source,
    reporting mispredictions per kilo-instruction (MPKI, normalized by
    *all* executed instructions) split by section and by the kind of
    outcome that was mispredicted. Warmup instructions train predictor
    state but are excluded from every statistic.

    Every gshare-family configuration derives its table index from the
    same global history, so the register is maintained once per
    conditional branch as a bare [int] and each configuration applies
    its own width mask ([(x lxor h) land m] distributes over the mask,
    so sharing is bit-exact). Misprediction counts land in a flat
    config-major matrix instead of per-config boxed records; opaque
    families (tournament, TAGE, any {!Repro_frontend.Predictor.t}) and
    static schemes ride along unchanged. [test/test_sweep.ml] pins
    every result against an independent per-configuration simulator.

    Runs under a [sweep.fused] telemetry span. *)

(** Static schemes the compiler/decoder could implement without any
    prediction storage; BTFN (backward-taken, forward-not-taken) is
    the natural baseline for the paper's bias findings. *)
type static = Always_taken | Always_not_taken | Btfn

(** Fig. 6 breakdown: what the branch actually did when mispredicted. *)
type cause = On_not_taken | On_taken_backward | On_taken_forward

val causes : cause list

type spec
(** One configuration to sweep. *)

val of_name : string -> spec
(** A Fig. 5 configuration by {!Repro_frontend.Zoo} name; raises
    [Not_found] for unknown names. *)

val of_spec : name:string -> Repro_frontend.Zoo.spec -> spec
(** Any predictor spec, e.g. a core's
    [Repro_uarch.Frontend_config.bp_spec]; [name] is what {!spec_name}
    reports. *)

val of_static : static -> spec
(** A zero-storage static scheme (the decoder knows the branch's
    direction and offset, so BTFN reads the instruction's target). *)

val spec_name : spec -> string
(** The name [run]'s result reports — the Zoo name, or
    [static-taken]/[static-not-taken]/[static-btfn]. *)

type t
(** Per-configuration result. *)

val run : Tool.Source.t -> spec array -> t array
(** Simulate every spec in one pass; result [i] corresponds to spec
    [i]. Over a packed capture only the conditional branches are
    replayed and the per-section instruction totals are absorbed in
    bulk. *)

val predictor_name : t -> string
val insts : t -> Branch_mix.scope -> int
val conditional_branches : t -> Branch_mix.scope -> int
val mispredictions : t -> Branch_mix.scope -> int

val mpki : t -> Branch_mix.scope -> float
(** Mispredictions per 1000 instructions in scope. *)

val misprediction_rate : t -> Branch_mix.scope -> float
(** Mispredictions per conditional branch. *)

val mpki_by_cause : t -> Branch_mix.scope -> cause -> float
