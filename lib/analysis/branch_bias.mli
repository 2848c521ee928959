(** Conditional-branch bias distribution (paper Fig. 2) and
    backward/forward split of taken conditionals (Table I).

    Bias is accumulated per static branch site; the reported histogram
    weights each site by its dynamic execution count, i.e. it answers
    "what fraction of *dynamic* conditional branches came from a site
    taken 0–10%, 10–20%, … of the time". *)

type t

val create : unit -> t
val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit

val deciles : t -> Branch_mix.scope -> float array
(** Ten fractions summing to 1 (0-10% taken, …, >90% taken); all-nan
    array when the scope saw no conditional branches. *)

val biased_fraction : t -> Branch_mix.scope -> float
(** Mass in the two extreme buckets (0–10% plus >90%) — the paper's
    notion of "dominantly decided in one direction". *)

val biased_of_deciles : float array -> float
(** [biased_fraction] of an already computed {!deciles} array. *)

val backward_taken_fraction : t -> Branch_mix.scope -> float
(** Of dynamically taken conditionals, the share whose target
    precedes the branch (Table I's "backward" column). *)

val taken_fraction : t -> Branch_mix.scope -> float
(** Dynamically taken share of conditional branches. *)

val static_sites : t -> int
(** Distinct conditional-branch addresses observed. *)
