(** Fused multi-configuration I-cache sweep (paper Figs. 8 and 9):
    every (size, line, associativity) point simulated in one pass.

    Fetch is modelled as the paper describes it: instructions are
    extracted sequentially from the current line without re-accessing
    the cache until the run crosses into a new line (sequentially or
    via a taken branch); each new line is one cache access. Warmup
    instructions warm the caches uncounted.

    The access-vs-extract decision — "does this instruction leave the
    line being fetched?" — depends only on the instruction stream and
    the line size, never on cache contents. Configurations are
    therefore grouped by line size, and the instruction's line span,
    the decision, and the current-fetch-line register are computed
    once per group per instruction.

    Within a group, every LRU configuration of a sweep without
    next-line prefetch is served by an {!Lru_stack}: one recency stack
    per distinct set count, as deep as the widest configuration at
    that count, gives the exact misses of every associativity at that
    count. A line-crossing access misses at the depth of its deepest
    line. Preuse and prefetch configurations run on the
    {!Repro_frontend.Icache} model in the same replay: on the
    (dominant) same-line path the consumed-granule mask is
    accumulated once per group and or'd into each model through
    {!Repro_frontend.Icache.consume_line}; every warm-up instruction
    is one access of each model and one touch of each stack. Line
    usefulness needs the
    model, so it has its own entry point, {!usefulness}.
    [test/test_sweep.ml] pins every result against an independent
    per-configuration simulator.

    Runs under a [sweep.fused] telemetry span. *)

type t
(** Per-configuration result. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  policy : Repro_frontend.Replacement.spec;
}
(** A sweep point: geometry plus replacement policy. Policies may be
    mixed freely within one sweep — the access-vs-extract decision
    depends only on the stream and the line size, so mixed-policy
    configurations still share line-size groups. *)

val cfg :
  ?policy:Repro_frontend.Replacement.spec -> int * int * int -> config
(** [(size_bytes, line_bytes, assoc)] with [policy] (default [Lru]). *)

val run : ?next_line_prefetch:bool -> Tool.Source.t -> config array -> t array
(** [run src configs]; result [i] corresponds to [configs.(i)].
    [next_line_prefetch] applies to every configuration of the sweep.
    A bad geometry raises {!Repro_frontend.Icache.create}'s
    [Invalid_argument]. *)

val insts : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float

val accesses : t -> int
(** Line lookups, warm-up included (the cache model's
    {!Repro_frontend.Icache.accesses}). *)

val line_misses : t -> int
(** Demand misses per line rather than per instruction, warm-up
    included (the cache model's {!Repro_frontend.Icache.misses}). *)

val prefetches : t -> int
val useful_prefetches : t -> int
(** Next-line prefetch fills issued, and those a demand access later
    used; 0 without [next_line_prefetch]. *)

val usefulness :
  ?next_line_prefetch:bool -> Tool.Source.t -> config -> float
(** Line usefulness ({!Repro_frontend.Icache.usefulness}) of one
    configuration over [src]. It needs each line's consumed granules,
    which LRU stacks do not track, so it always runs the cache
    model. *)
