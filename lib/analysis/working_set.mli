(** Instruction working-set curves: I-cache miss rate as a function of
    cache size, computed by one fused {!Icache_sweep} over a ladder of
    cache sizes. Generalizes the three sizes of the paper's Fig. 8
    into a full curve and locates its knee (the benchmark's effective
    instruction working set — the quantity that decides whether a
    16KB tailored I-cache is safe). *)

val curve :
  ?sizes:int list -> ?line_bytes:int -> ?assoc:int -> Tool.Source.t ->
  (int * float) list
(** [(size_bytes, total MPKI)] per ladder rung, ascending size.
    Defaults: sizes 2KB..128KB in powers of two, 64B lines, 4-way. *)

val knee : ?threshold:float -> (int * float) list -> int option
(** Smallest size whose MPKI is within [threshold] (default 0.5 MPKI)
    of the largest size's MPKI. [None] for a curve of fewer than two
    sizes, an empty source, or when even the largest cache misses the
    bound. *)
