(** Loop branch predictor: a small tagged table that learns the trip
    count of loops whose backward branch iterates a constant number of
    times, then predicts the loop exit exactly.

    Matches the paper's evaluated configuration: 64 entries, roughly a
    512-byte hardware budget. The LBP only takes over once it has seen
    the same trip count twice in a row (confidence threshold); before
    that a base predictor provides the decision (see {!Hybrid}). *)

type t

val create : ?entries:int -> ?conf_threshold:int -> unit -> t
(** Defaults: 64 entries, confidence threshold 2. Entries must be a
    power of two. *)

val prediction : t -> pc:int -> int
(** The direction as [1] (taken) or [0] when the entry for [pc] is
    tagged, confident, and mid sequence; [-1] when the LBP has no
    opinion. An int rather than an option, so the per-branch loop of
    a sweep allocates nothing. *)

val update : t -> pc:int -> taken:bool -> unit
(** Observe the resolved branch; trains trip counts and confidence. *)

val storage_bits : t -> int

val combine : t -> Predictor.t -> Predictor.t
(** [combine lbp base] is the paper's "L-" configuration: the LBP's
    prediction wins when confident, otherwise the base predicts; both
    are always trained. Storage is the sum of the two budgets. *)
