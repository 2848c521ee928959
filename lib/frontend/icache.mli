(** Instruction cache: set-associative, LRU, physically indexed by
    line address. Tracks, per resident line, which 4-byte granules of
    the line were consumed, to report the paper's line "usefulness"
    metric (fraction of a fetched line's bytes that were actually
    used before eviction). *)

type t

val create :
  ?next_line_prefetch:bool -> ?policy:Replacement.spec -> size_bytes:int ->
  line_bytes:int -> assoc:int -> unit -> t
(** All three powers of two; [line_bytes >= 4]; at least one set.
    With [next_line_prefetch] (default false), every demand miss also
    fills the sequentially next line — the "fetch-directed" effect the
    paper attributes to wide lines, as an explicit mechanism.
    [policy] (default {!Replacement.Lru}) selects the replacement
    policy; [Lru] is byte-identical to the historical hard-wired
    behavior. *)

val geometry : size_bytes:int -> line_bytes:int -> assoc:int -> int
(** The set count of a cache of this geometry, raising the same
    [Invalid_argument] as {!create} for a bad one, without building
    it. *)

val size_bytes : t -> int
val line_bytes : t -> int
val assoc : t -> int

val policy : t -> Replacement.spec

val access : t -> addr:int -> size:int -> bool
(** Fetch [size] bytes at [addr] (one instruction, or the leading
    slice of one). Returns [true] on hit. A miss allocates the line.
    Instructions straddling a line boundary access both lines; the
    result is a hit only if every touched line hits. *)

val access_line : t -> line:int -> gmask:int -> bool
(** [access] specialized to bytes that lie within the single line
    [line] (a line address, not a byte address), with the consumed
    granule bitmask [gmask] precomputed by the caller. Equivalent to
    [access ~addr ~size] when [addr .. addr+size-1] spans only
    [line]. Fused sweeps ({!Repro_analysis.Icache_sweep}) compute the
    line and mask once per line size and probe every configuration
    sharing that line size with them. *)

val consume : t -> addr:int -> size:int -> unit
(** Mark bytes as consumed from an already-resident line without
    counting a cache access (sequential extraction within the current
    fetch line). No-op for non-resident lines. *)

val consume_line : t -> line:int -> gmask:int -> unit
(** [consume] specialized to bytes that lie within the single line
    [line] (a line address, not a byte address), with the granule
    bitmask [gmask] precomputed by the caller. Equivalent to
    [consume ~addr ~size] when [addr .. addr+size-1] spans only
    [line]; fused sweeps ({!Repro_analysis.Icache_sweep}) compute the
    mask once per line size and replay it into every configuration
    sharing that line size. *)

val accesses : t -> int
(** Number of line-level cache lookups performed so far. *)

val misses : t -> int
(** Demand misses only (prefetch fills are not counted). *)

val prefetches : t -> int
(** Prefetch fills issued (0 unless enabled). *)

val useful_prefetches : t -> int
(** Prefetched lines that later served a demand access. *)

val usefulness : t -> float
(** Mean fraction of bytes consumed per evicted (or still-resident)
    fetched line, in [0,1]. [nan] before any fill. *)

val reset_stats : t -> unit
val storage_bits : t -> int
