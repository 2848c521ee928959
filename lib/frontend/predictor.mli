(** First-class branch predictors.

    Concrete predictors ({!Gshare}, {!Tournament}, {!Tage},
    {!Perceptron}, {!Two_level} and the {!Loop_predictor} combination)
    pack themselves into this uniform record so simulation tools can
    sweep heterogeneous configurations. A predictor sees the
    conditional-branch stream one branch at a time through [step].

    Contract: every concrete predictor's [predict] is pure (it reads
    tables and histories and changes nothing), and [step pc taken] is
    exactly [predict pc] followed by training on the resolved
    direction, which also advances internal histories. A caller that
    only trains (warm-up) therefore calls [ignore (step pc taken)] and
    leaves the same state as the old train-only entry point. Fusing
    the two lets a predictor search its tables once per branch. *)

type t = {
  name : string;
  step : int -> bool -> bool;
      (** [step pc taken]: the prediction made before [taken] was
          known; the predictor is then trained on [taken]. *)
  storage_bits : int;  (** hardware budget, in bits *)
}

val make : name:string -> step:(int -> bool -> bool) -> storage_bits:int -> t

val storage_bytes : t -> int
(** [storage_bits / 8], rounded up. *)

val pp_cost : Format.formatter -> t -> unit
(** Name with its hardware budget, e.g. ["gshare-small (2KB)"]. *)
