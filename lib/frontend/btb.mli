(** Branch target buffer: a set-associative cache from branch address
    to predicted target, holding taken branches only (not-taken
    branches fall through sequentially). Modulo indexing on the branch
    address — the paper points at exactly this indexing as the source
    of aliasing that high associativity must absorb. LRU replacement.

    A lookup that misses, or hits with a stale target, costs a fetch
    redirect; {!Repro_analysis.Btb_sweep} counts those as BTB MPKI events
    (with LRU stacks: it never builds a [t]). *)

type t

val create : entries:int -> assoc:int -> t
(** [entries] total entries, [assoc]-way sets. Both powers of two,
    [assoc <= entries]. *)

val geometry : entries:int -> assoc:int -> int
(** The set count of [create ~entries ~assoc], raising the same
    [Invalid_argument] as [create] for a bad geometry, without
    building the table. *)

val entries : t -> int
val assoc : t -> int
val sets : t -> int

val lookup : t -> pc:int -> int option
(** Predicted target if the branch address is present. Updates LRU. *)

val insert : t -> pc:int -> target:int -> unit
(** Record a taken branch's target (allocates or refreshes). *)

val storage_bits : t -> int
(** Tag + target payload per entry. *)
