(** Standard predictor configurations from the paper's Table II.

    Every function builds a *fresh* predictor (internal state included)
    so sweeps over benchmarks never share training state. The "small"
    configurations target a ~2KB hardware budget, the "big" ones ~16KB;
    [with_loop] attaches the 64-entry (~0.5KB) loop predictor the paper
    evaluates as the "L-" variants. *)

val gshare_small : unit -> Predictor.t
(** gshare, [m = 13] (2KB). *)

val gshare_big : unit -> Predictor.t
(** gshare, [m = 16] (16KB). *)

val tournament_small : unit -> Predictor.t
(** tournament, [n = 10, m = 8] (~1.4KB). *)

val tournament_big : unit -> Predictor.t
(** tournament, [n = 12, m = 14] (16KB). *)

val tage_small : unit -> Predictor.t
(** TAGE, two tagged tables (history 4 and 16) (~2KB). *)

val tage_big : unit -> Predictor.t
(** TAGE, twelve tagged tables, histories 4..640 (~14KB). *)

val perceptron_small : unit -> Predictor.t
(** perceptron, 128 entries over 15 history bits (2KB). *)

val perceptron_big : unit -> Predictor.t
(** perceptron, 512 entries over 31 history bits (16KB). *)

val with_loop : Predictor.t -> Predictor.t
(** Attach a fresh 64-entry loop predictor ("L-" prefix). *)

val all_names : string list
(** The eleven names of Fig. 5: [gshare-big] .. [L-tage-small],
    including [perceptron-big] and [perceptron-small]. *)

val by_name : string -> Predictor.t
(** Fresh instance from a Fig. 5 name; raises [Not_found] otherwise. *)

(** {1 Configuration specs}

    Declarative description of a Fig. 5 configuration. Predictors
    whose per-branch state derives from the global stream alone
    (the gshare family) expose their parameters so fused sweeps
    ({!Repro_analysis.Bp_sweep}) can share one history register
    across every table; other families stay opaque makers. *)

type core =
  | Gshare_core of { history_bits : int }
  | Opaque of (unit -> Predictor.t)

type spec = { loop : bool  (** wrapped by {!with_loop} *); core : core }

val spec_by_name : string -> spec
(** Spec for a Fig. 5 name; raises [Not_found] otherwise. [by_name]
    is [spec_by_name] realized, so the two can never disagree. *)

val realize : ?name:string -> spec -> Predictor.t
(** Fresh predictor for a spec, wrapped by {!with_loop} when [loop].
    A gshare core is packed under [name] (default [gshare-<bits>]);
    opaque makers name their own predictor. *)

(** {1 Extension predictors}

    Beyond the paper's three families: used by the extension
    experiment in the bench harness. *)

val perceptron : unit -> Predictor.t
(** 128-entry, 24-bit-history perceptron (~3KB). *)

val two_level : unit -> Predictor.t
(** PAg two-level local predictor, 1K histories of 10 bits (~1.5KB). *)

val extended_names : string list
(** [all_names] plus the extension predictors. *)

val by_name_extended : string -> Predictor.t
