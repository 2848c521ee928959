(** Mattson LRU stacks (Mattson et al., 1970), the kernel behind the
    LRU I-cache and BTB sweeps.

    LRU is a stack algorithm: at a fixed set count, the lines an
    [a]-way LRU cache holds in a set are always the [a] most recently
    used lines of that set. So one recency-ordered stack per set,
    [depth] entries deep, tells every associativity [a <= depth] at
    that set count whether an access hits: it hits iff the key's
    stack depth before the access is below [a]. The stack records
    each access's depth in a small histogram, and an [a]-way
    configuration's misses are the accesses at depth [a] or deeper.

    Keys are non-negative; a key's set is [key land (sets - 1)]. *)

type t

val touch : t -> int -> int
(** [touch t key] is [key]'s depth in its set's stack before this
    access (0 = most recently used), or the stack's depth when it is
    not among the set's that many most recent keys; [key] becomes the
    set's most recently used key. *)

val touch_target : t -> int -> int -> int
(** [touch_target t key v], on a [payload] stack: as {!touch}, but a
    key present with a payload other than [v] also reports the
    stack's depth (a stale entry misses at every associativity). The
    entry's payload becomes [v]. *)

val record : t -> row:int -> int -> unit
(** Count one access at the given depth in histogram row [row]. *)

val misses : t -> row:int -> assoc:int -> int
(** Accesses recorded in [row] at depth [assoc] or deeper: the misses
    of an [assoc]-way cache with this set count ([assoc] at most the
    stack's depth). *)

val plan :
  ?payload:bool -> rows:int -> (int * int) array -> t array * int array
(** [plan ~rows geometries] with [(sets, assoc)] per configuration
    ([sets] a power of two, [assoc >= 1]): one stack per distinct set
    count, in first-appearance order, as deep as the widest
    configuration at that count, and each configuration's stack index.
    Each stack's histogram has [rows] rows (e.g. one per trace
    section). With [payload], every entry carries an int
    ({!touch_target}). *)
