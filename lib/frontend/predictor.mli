(** First-class branch predictors.

    Concrete predictors ({!Gshare}, {!Tournament}, {!Tage},
    and the {!Hybrid} loop-predictor combination) pack themselves into
    this uniform record so simulation tools can sweep heterogeneous
    configurations. A predictor sees the conditional-branch stream:
    [predict] is called before the outcome is known, then [update] with
    the resolved direction (which also advances internal histories). *)

type t = {
  name : string;
  predict : int -> bool;  (** [predict pc]: predicted direction *)
  update : int -> bool -> unit;  (** [update pc taken]: train *)
  storage_bits : int;  (** hardware budget, in bits *)
}

val make :
  name:string ->
  predict:(int -> bool) ->
  update:(int -> bool -> unit) ->
  storage_bits:int ->
  t

val storage_bytes : t -> int
(** [storage_bits / 8], rounded up. *)

val pp_cost : Format.formatter -> t -> unit
(** Name with its hardware budget, e.g. ["gshare-small (2KB)"]. *)
