(** Perceptron branch predictor (Jiménez & Lin, HPCA 2001): one signed
    weight vector per branch (hashed by address), dotted against the
    global history; trained on a misprediction or when the output
    magnitude is below the threshold.

    Included as an extension beyond the paper's three predictors: its
    linear separability limit is a different failure mode than table
    aliasing, which makes it a useful cross-check on the workload
    model (HPC's biased branches are trivially separable; desktop
    path-correlated ensembles often are not). *)

type t

val create : ?entries:int -> ?history:int -> unit -> t
(** Defaults: 128 perceptrons over 24 history bits (~3KB of 8-bit
    weights). [entries] must be a power of two and
    [1 <= history <= 62] (the history is read as one packed word);
    anything else raises [Invalid_argument]. *)

val predict : t -> pc:int -> bool
(** Pure: reads the weights and history, changes nothing. *)

val step : t -> pc:int -> taken:bool -> bool
(** [predict], then train on [taken]; returns the prediction. *)

val storage_bits : t -> int
val pack : ?name:string -> t -> Predictor.t
