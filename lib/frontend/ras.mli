(** Return-address stack: the structure that lets the front-end treat
    returns as fully predicted (the assumption
    {!Repro_analysis.Btb_sweep} makes). Fixed depth with wrap-around
    overwrite on overflow, as in real hardware, so deep recursion
    corrupts the oldest entries. *)

type t

val create : ?depth:int -> unit -> t
(** Default depth 16 entries (Cortex-A9 class). Power of two. *)

val push : t -> int -> unit
(** Record a call's return address. *)

val pop : t -> int option
(** Predicted return target; [None] when the stack has underflowed. *)

val depth : t -> int
val occupancy : t -> int
(** Live entries (0..depth). *)

val overflows : t -> int
(** Pushes that overwrote a live entry. *)

val storage_bits : t -> int
