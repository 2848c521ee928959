(** Bimodal predictor for the tests: one table of 2-bit saturating
    counters indexed by the branch address, the simplest dynamic
    predictor. No figure sweeps it. *)

type t

val create : index_bits:int -> t
(** Table of [2^index_bits] 2-bit counters. *)

val predict : t -> pc:int -> bool
val update : t -> pc:int -> taken:bool -> unit
val storage_bits : t -> int
val pack : t -> Repro_frontend.Predictor.t
