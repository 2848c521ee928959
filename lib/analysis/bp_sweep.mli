(** Fused multi-configuration branch-predictor sweep: every
    configuration of Figs. 5/6 simulated in one pass over the source.

    {!Bp_sim.run_all} already shares the trace replay across sims,
    but each sim still pays per-event closure dispatch through
    {!Repro_frontend.Predictor.t} and a private history register.
    This kernel exploits that every gshare-family configuration
    derives its table index from the same global history: the
    register is maintained once per conditional branch as a bare
    [int] and each configuration applies its own width mask
    ([(x lxor h) land m] distributes over the mask, so sharing is
    bit-exact — pinned by the qcheck differential in
    [test/test_sweep.ml]). Misprediction counts land in a flat
    config-major matrix instead of per-config boxed records; opaque
    families (tournament, TAGE) and static schemes ride along
    unchanged.

    Runs under a [sweep.fused] telemetry span. *)

type spec
(** One configuration to sweep. *)

val of_name : string -> spec
(** A Fig. 5 configuration by {!Repro_frontend.Zoo} name; raises
    [Not_found] for unknown names. *)

val of_static : Bp_sim.static -> spec
(** A zero-storage static scheme. *)

val spec_name : spec -> string
(** The name [run]'s result reports — the Zoo name, or
    [static-taken]/[static-not-taken]/[static-btfn]. *)

type t
(** Per-configuration result; accessors mirror {!Bp_sim}. *)

val run : Tool.Source.t -> spec array -> t array
(** Simulate every spec in one pass; result [i] corresponds to spec
    [i] and is bit-identical to a per-config [Bp_sim] run of the same
    configuration over the same source. *)

val predictor_name : t -> string
val insts : t -> Branch_mix.scope -> int
val conditional_branches : t -> Branch_mix.scope -> int
val mispredictions : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val misprediction_rate : t -> Branch_mix.scope -> float
val mpki_by_cause : t -> Branch_mix.scope -> Bp_sim.cause -> float
