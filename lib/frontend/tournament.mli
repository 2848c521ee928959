(** Tournament predictor in the style of the Alpha 21264 (Kessler,
    1998): a per-branch local-history component and a global-history
    component, arbitrated by a choice table trained toward whichever
    component was right.

    Sizing follows the paper's Table II: with [n] address-index bits
    and history length [m], cost is [2^n * (m+2) + 2^(m+2)] bits —
    [2^n] local histories of [m] bits each plus [2^n] 2-bit local
    counters, and [2^m] 2-bit global counters plus [2^m] 2-bit choice
    counters. Small: [n=10, m=8] (~1.4KB); big: [n=12, m=14] (16KB). *)

type t

val create : addr_bits:int -> history_bits:int -> t
val predict : t -> pc:int -> bool
(** Pure: reads the tables and histories, changes nothing. *)

val step : t -> pc:int -> taken:bool -> bool
(** [predict], then train on [taken]; returns the prediction. *)

val storage_bits : t -> int
val pack : name:string -> t -> Predictor.t
