(** Two-level local-history predictor (Yeh & Patt, "PAg"): a first
    level of per-branch history registers and a second-level pattern
    table of 2-bit counters indexed by the branch's own history.

    The paper's GPU-related-work discussion cites exactly this scheme
    ("a branch predictor based on local history tables" predicting 95%
    of GPU branches); included as an extension predictor. *)

type t

val create : ?addr_bits:int -> ?history:int -> unit -> t
(** Defaults: 1024 local histories of 10 bits, a 1024-entry shared
    pattern table. Cost [2^addr_bits * history + 2^history * 2] bits. *)

val predict : t -> pc:int -> bool
(** Pure: reads the tables and histories, changes nothing. *)

val step : t -> pc:int -> taken:bool -> bool
(** [predict], then train on [taken]; returns the prediction. *)

val storage_bits : t -> int
val pack : ?name:string -> t -> Predictor.t
