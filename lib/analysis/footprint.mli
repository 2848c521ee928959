(** Instruction-footprint measurement (paper Fig. 3): the static code
    size actually touched by the execution, and the amount of memory
    needed to hold a given coverage (the paper uses 99%) of the
    dynamic instruction stream. Tracked per static instruction
    address, separately for serial and parallel sections.

    The per-address accumulator [t] is large (one cell per executed
    instruction); what the figures need is its {!summary}, four ints,
    which is what characterizations keep and the cache stores. *)

type t

val create : unit -> t
val feed : t -> Repro_isa.Inst.t -> unit
val observer : t -> Repro_isa.Inst.t -> unit

val static_bytes : t -> Branch_mix.scope -> int
(** Total encoded bytes of distinct instructions executed in scope. *)

val dynamic_bytes : t -> Branch_mix.scope -> coverage:float -> int
(** Bytes of the hottest instructions needed to cover the given
    fraction of dynamic instructions (e.g. [~coverage:0.99]). *)

val static_insts : t -> Branch_mix.scope -> int
(** Distinct instruction addresses executed in scope. *)

(** {1 Summary} *)

val coverage : float
(** The paper's dynamic-footprint coverage, 99% ([0.99]). *)

type summary = {
  static_total : int;  (** [static_bytes t Total] *)
  hot_total : int;  (** [dynamic_bytes t Total ~coverage] *)
  hot_serial : int;  (** [dynamic_bytes t (Only Serial) ~coverage] *)
  hot_parallel : int;  (** [dynamic_bytes t (Only Parallel) ~coverage] *)
}

val summarize : t -> summary
(** The Fig. 3 numbers of an accumulator, computed by the functions
    above at {!coverage}, so they are identical by construction. *)

val hot_bytes : summary -> Branch_mix.scope -> int
(** The summary's {!coverage}-dynamic footprint for a scope. *)
