(** Gshare predictor (McFarling, 1993): one global pattern-history
    table of 2-bit counters indexed by the branch address XORed with
    the global branch-history register.

    Hardware cost is [2^(m+1)] bits for history length [m], matching
    the paper's Table II ([m = 13] for the ~2KB "small" configuration,
    [m = 16] for the ~16KB "big" one). *)

type t

val create : history_bits:int -> t
val predict : t -> pc:int -> bool
(** Pure: reads the table and history, changes nothing. *)

val step : t -> pc:int -> taken:bool -> bool
(** [predict], then train on [taken]; returns the prediction. *)

val storage_bits : t -> int
val pack : name:string -> t -> Predictor.t
