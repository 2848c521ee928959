(** TAGE branch predictor (Seznec & Michaud, 2006): a bimodal base
    predictor plus a set of partially-tagged tables indexed with
    geometrically increasing global-history lengths. The longest
    matching table provides the prediction; useful-counters steer
    allocation on mispredictions.

    The two configurations the paper evaluates (Table II, note 2):
    "big" ≈ 16KB with 12 tagged tables, "small" ≈ 2KB with two tagged
    tables for history lengths 4 and 16. *)

type table_spec = {
  hist_len : int;  (** global history bits hashed into this table *)
  index_bits : int;  (** log2 of the number of entries *)
  tag_bits : int;
}

type t

val create : base_index_bits:int -> table_spec list -> t
(** [create ~base_index_bits specs]: bimodal base of
    [2^base_index_bits] counters plus one tagged table per spec.
    Specs must be in increasing [hist_len] order. *)

val geometric_specs :
  n_tables:int -> min_hist:int -> max_hist:int -> index_bits:int ->
  tag_bits:int -> table_spec list
(** Helper building the classic geometric history-length series. *)

val predict : t -> pc:int -> bool
(** Pure as far as the predictor state goes (tables, histories, the
    allocation RNG); it only overwrites per-instance scratch. *)

val step : t -> pc:int -> taken:bool -> bool
(** [predict], then train on [taken]; returns the prediction. Each
    table's index and tag are hashed once per call. *)

val storage_bits : t -> int
val pack : name:string -> t -> Predictor.t
