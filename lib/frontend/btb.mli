(** Branch target buffer: a set-associative cache from branch address
    to predicted target, holding taken branches only (not-taken
    branches fall through sequentially). Modulo indexing on the branch
    address — the paper points at exactly this indexing as the source
    of aliasing that high associativity must absorb. LRU replacement.

    A lookup that misses, or hits with a stale target, costs a fetch
    redirect; {!Repro_analysis.Btb_sweep} counts those as BTB MPKI events. *)

type t

val create : entries:int -> assoc:int -> t
(** [entries] total entries, [assoc]-way sets. Both powers of two,
    [assoc <= entries]. *)

val entries : t -> int
val assoc : t -> int
val sets : t -> int

val lookup : t -> pc:int -> int option
(** Predicted target if the branch address is present. Updates LRU. *)

val insert : t -> pc:int -> target:int -> unit
(** Record a taken branch's target (allocates or refreshes). *)

(** {1 Decomposed operations}

    [lookup] and [insert] split pc into a set index and a tag; fused
    sweeps ({!Repro_analysis.Btb_sweep}) decompose once per distinct
    set count and drive every same-geometry configuration with the
    shared pair. [lookup t ~pc] = [lookup_at t ~set:(set_of t ~pc)
    ~tag:(tag_of t ~pc)], and likewise for [insert]. *)

val set_of : t -> pc:int -> int
val tag_of : t -> pc:int -> int
val lookup_at : t -> set:int -> tag:int -> int option
val insert_at : t -> set:int -> tag:int -> target:int -> unit

val storage_bits : t -> int
(** Tag + target payload per entry. *)
