(** Fused multi-configuration I-cache sweep (paper Figs. 8 and 9):
    every (size, line, associativity) point simulated in one pass.

    Fetch is modelled as the paper describes it: instructions are
    extracted sequentially from the current line without re-accessing
    the cache until the run crosses into a new line (sequentially or
    via a taken branch); each new line is one cache access. Line
    usefulness (consumed bytes per fetched line) is reported by the
    underlying {!Repro_frontend.Icache}. Warmup instructions warm the
    caches uncounted.

    The access-vs-extract decision — "does this instruction leave the
    line being fetched?" — depends only on the instruction stream and
    the line size, never on cache contents. Configurations are
    therefore grouped by line size: the instruction's line span, the
    decision, and the current-fetch-line register are computed once
    per group per instruction, and on the (dominant) same-line path
    the consumed-granule bitmask is precomputed once and or'd into
    every member cache through {!Repro_frontend.Icache.consume_line}.
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
    [next_line_prefetch] applies to every configuration of the sweep. *)

val insts : t -> Branch_mix.scope -> int
val misses : t -> Branch_mix.scope -> int
val mpki : t -> Branch_mix.scope -> float
val accesses : t -> int
val usefulness : t -> float
val cache : t -> Repro_frontend.Icache.t
