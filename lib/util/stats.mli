(** Streaming and batch statistics used throughout the characterization
    tools: single-pass mean/variance (Welford), weighted means, geometric
    means, percentiles, and fixed-bin histograms. *)

(** {1 Single-pass accumulator} *)

module Acc : sig
  type t
  (** Welford accumulator for count / mean / variance / min / max. *)

  val create : unit -> t
  val add : t -> float -> unit
  val add_weighted : t -> weight:float -> float -> unit

  val count : t -> int
  val total_weight : t -> float
  val sum : t -> float
  val mean : t -> float
  (** Mean of the added samples; [nan] when empty. *)

  val variance : t -> float
  (** Population variance; [0.] with fewer than two samples. *)

  val std_dev : t -> float
  val min : t -> float
  val max : t -> float
end

(** {1 Batch helpers} *)

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val geomean : float list -> float
(** Geometric mean; requires strictly positive entries; [nan] on empty. *)

val weighted_mean : (float * float) list -> float
(** [(weight, value)] pairs; [nan] when total weight is zero. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [0,100]; linear interpolation between
    closest ranks; the array is sorted internally (copy, not in place)
    with [Float.compare]. NaN handling is therefore explicit and
    deterministic: [Float.compare] is a total order placing every NaN
    below every number, so an array containing NaN returns NaN for
    percentiles that land on (or interpolate with) a NaN rank — the
    low end — and the finite values for the rest, independent of the
    input order. Raises [Invalid_argument] on an empty array. *)

val percentiles : float array -> float list -> float list
(** [percentiles a ps] equals [List.map (percentile a) ps] but sorts
    [a] once — the load-generator path computes p50/p90/p99 of one
    latency array. Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

(** {1 Histograms} *)

module Histogram : sig
  type t
  (** Fixed-width binning of a bounded range, with under/overflow bins. *)

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> ?weight:float -> float -> unit
  val bin_count : t -> int
  val bin_weight : t -> int -> float
  val bin_bounds : t -> int -> float * float
  val total : t -> float
  val fractions : t -> float array
  (** Per-bin share of total weight (empty histogram gives zeros). *)

  val mass_below : t -> float -> float
  (** Total weight strictly below a threshold (by bin lower bound). *)
end

(** {1 Cumulative footprints} *)

val bytes_for_coverage : (int * float) list -> coverage:float -> int
(** [bytes_for_coverage cells ~coverage] where [cells] is a list of
    [(size_in_bytes, dynamic_weight)]: sorts cells by weight (hottest
    first) and returns the number of bytes of the hottest cells needed
    to cover [coverage] (e.g. [0.99]) of the total dynamic weight. *)
