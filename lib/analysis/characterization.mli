(** One-pass architecture-independent characterization of a benchmark:
    bundles the Fig. 1–4 / Table I tools, run over a single execution
    of the trace, exactly like attaching several pintools to one
    instrumented run. The footprint is kept as its summary: the
    per-address table is dropped once the trace has been read. *)

type t = {
  name : string;
  suite : Repro_workload.Suite.t;
  mix : Branch_mix.t;
  bias : Branch_bias.t;
  footprint : Footprint.summary;
  bblocks : Bblock_stats.t;
}

val of_source :
  name:string -> suite:Repro_workload.Suite.t -> Tool.Source.t -> t
(** Run all four tools over the source in one pass. *)

val of_trace :
  name:string -> suite:Repro_workload.Suite.t -> Repro_isa.Trace.t -> t
(** {!of_source} over a streaming trace. *)

val of_profile : ?insts:int -> Repro_workload.Profile.t -> t
(** Generate the benchmark's program, execute it, characterize it. *)

(** {1 Aggregation} *)

val suite_mean : 'a list -> ('a -> float) -> float
(** Arithmetic mean of a metric over benchmarks (or anything derived
    from them, one item per benchmark), skipping [nan]s (a benchmark
    with no serial instructions has no serial metrics). *)
