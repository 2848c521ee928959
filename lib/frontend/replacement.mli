(** Replacement policy for the set-associative {!Icache}.

    The cache owns the recency state (per-way LRU stamps bumped from a
    shared clock) because every policy here still consults it; the
    policy owns everything else about the replacement decision: victim
    selection, what to learn from a hit, whether a demand fill should
    be bypassed, and what to record about a freshly installed line.

    [Lru] is the extracted default — byte-identical to the historical
    hard-wired behavior (first invalid way, else lowest LRU stamp,
    ties to the lowest way index; no bypass, no learning).

    [Preuse] is a perceptron reuse/bypass predictor in the shape of
    Teran et al. (MICRO 2016): {!tables} hashed feature tables of
    {!table_entries} small signed saturating weights each, indexed by
    features over the line address and the recent fetch-line history.
    The summed prediction [yout] is compared against the bypass
    threshold {!tau} (predicted dead on arrival / dead in cache) and
    the training threshold {!theta} (stop updating once confidently
    correct). Training happens only in sampler sets
    ({!sampled_set}), which never bypass — so the predictor always
    has live reuse/eviction outcomes to learn from and cannot talk
    itself into bypassing everything. All state is flat [int] arrays
    so the fused sweep kernels keep their memory behavior. *)

type spec = Lru | Preuse

val all_specs : spec list

val spec_to_string : spec -> string
(** ["lru"] / ["preuse"] — the names used by experiment configs,
    cache keys and the CLI. *)

val spec_of_string : string -> spec option

(** {1 Perceptron parameters} *)

val tables : int
(** Feature tables (6). *)

val table_entries : int
(** Entries per table (256); feature hashes are taken modulo this. *)

val weight_min : int
val weight_max : int
(** 6-bit signed saturating weights: [-32 .. 31]. *)

val theta : int
(** Training threshold: a recorded prediction is reinforced only when
    it was wrong or its magnitude is at most [theta]. *)

val tau : int
(** Bypass / dead threshold: [yout >= tau] predicts no reuse. *)

val sampled_set : int -> bool
(** Sampler sets train the predictor and never bypass; the rest use
    its predictions. One set in four samples. *)

(** {1 Per-cache policy state} *)

type t

val create : spec -> assoc:int -> ways:int -> t
(** [ways] = sets * assoc, the flat way count of the owning cache. *)

val spec : t -> spec

val storage_bits : t -> int
(** Hardware cost of the policy state (0 for [Lru]). *)

(** {1 Hooks}

    The owning cache calls these in a fixed order so that the naive
    reference implementation can replay the exact same weight-update
    sequence: on a demand hit, [on_hit] then [note_access]; on a
    demand miss, [prepare], then (unless bypassing) [victim] and
    [on_fill], then any next-line prefetch ([prepare] / [victim] /
    [on_fill] against the prefetched line, ignoring [prepare]'s
    bypass verdict), and finally [note_access] for the demand line. *)

val on_hit : t -> way:int -> set:int -> line:int -> unit
(** Demand hit on [way]: train the way's recorded prediction as
    "reused" (sampler sets only), then re-predict and re-record the
    way's state for the next round. *)

val prepare : t -> set:int -> line:int -> bool
(** An absent [line] is about to be filled into [set]: predict it once
    (the prediction is held until the next [on_fill] consumes it) and
    return [true] when a demand fill should be bypassed. Prefetch
    fills call this too but ignore the verdict. *)

val victim : t -> tags:int array -> lru:int array -> base:int -> int
(** Victim way in [base .. base+assoc-1]: first invalid way, else the
    policy's preference among valid ways ([Lru]: lowest LRU stamp;
    [Preuse]: lowest LRU stamp among predicted-dead ways when any,
    else lowest LRU stamp). *)

val on_fill : t -> way:int -> set:int -> evicted:bool -> unit
(** [way] was just filled with the line last passed to [prepare].
    When [evicted], the way held a valid line: train its recorded
    prediction as "not reused" (sampler sets only). Then install the
    prediction [prepare] computed. *)

val note_access : t -> line:int -> unit
(** End of a demand access (hit, miss or bypassed miss): push [line]
    into the recent-line history. Prefetch fills do not call this. *)
