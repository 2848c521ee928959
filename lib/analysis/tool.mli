(** Analysis-tool plumbing: the moral equivalent of running several
    pintools over one instrumented execution. Each tool is an
    [Inst.t -> unit] observer; {!run_all} drives a trace through many
    observers in a single pass, which matters because trace generation
    dominates runtime. *)

val run : Repro_isa.Trace.t -> (Repro_isa.Inst.t -> unit) -> unit
(** Single-observer convenience (same as [Trace.iter]). *)

val run_all : Repro_isa.Trace.t -> (Repro_isa.Inst.t -> unit) list -> unit
(** One pass, observers called in list order per instruction. *)

(** A replayable instruction source: either a live streaming trace
    (re-executes the workload generator on every pass) or a packed
    capture (generated once, replayed cheaply). Tools that can
    exploit the packed form — branch predictors and BTBs only act on
    a small slice of the stream — dispatch on this; everything else
    treats both forms as the identical instruction sequence. *)
module Source : sig
  type t =
    | Stream of Repro_isa.Trace.t
    | Packed of Repro_isa.Packed_trace.t

  val of_trace : Repro_isa.Trace.t -> t
  val of_packed : Repro_isa.Packed_trace.t -> t

  val iter : t -> (Repro_isa.Inst.t -> unit) -> unit
  (** Full stream, in order, whichever form backs it. *)
end

val run_all_source : Source.t -> (Repro_isa.Inst.t -> unit) list -> unit
(** {!run_all} over either source form (full stream, one pass). *)

(** Per-section tallies many tools need. *)
module Split : sig
  type t = { mutable serial : int; mutable parallel : int }

  val create : unit -> t
  val incr : t -> Repro_isa.Section.t -> unit
  val add : t -> Repro_isa.Section.t -> int -> unit
  val get : t -> Repro_isa.Section.t -> int
  val total : t -> int
end
