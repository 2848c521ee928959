(** Front-end structure configurations: the tuple the paper sweeps —
    I-cache geometry, branch predictor, and BTB geometry — plus the
    two named design points of Section V. *)

type bp_kind =
  | Gshare of { history_bits : int }
  | Tournament of { addr_bits : int; history_bits : int }
  | Tage_small
  | Tage_big

type t = {
  icache_bytes : int;
  icache_line : int;
  icache_assoc : int;
  icache_repl : Repro_frontend.Replacement.spec;
      (** I-cache replacement policy ([Lru] for both paper cores). *)
  bp : bp_kind;
  bp_loop : bool;  (** attach the 64-entry loop predictor *)
  btb_entries : int;
  btb_assoc : int;
}

val baseline : t
(** The paper's baseline lean core: 32KB/64B-line 4-way I-cache, 16KB
    tournament predictor, 2K-entry 4-way BTB. *)

val tailored : t
(** The paper's HPC-tailored core: 16KB/128B-line 8-way I-cache, 2KB
    tournament predictor + loop BP, 256-entry 8-way BTB. *)

val tailored_preuse : t
(** {!tailored} with perceptron reuse/bypass I-cache replacement
    instead of LRU (the fig10p design point). *)

val bp_spec : t -> Repro_frontend.Zoo.spec
(** The predictor as a declarative spec, the form fused sweeps
    ({!Repro_analysis.Bp_sweep.of_spec}) take. *)

val make_bp : t -> Repro_frontend.Predictor.t
(** Fresh predictor instance for this configuration: {!bp_spec}
    realized, so the sweep and every other caller run the same
    predictor. *)

val bp_bits : t -> int
(** Hardware budget of the predictor (incl. loop predictor). *)

val name : t -> string
val pp : Format.formatter -> t -> unit
