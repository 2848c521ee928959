(** Packed capture/replay of a dynamic instruction stream.

    A packed trace is a compact structure-of-arrays snapshot of every
    {!Inst.t} a {!Trace.t} produces: per instruction one machine word
    for the address, one for the branch target, one byte for the
    encoded size and one byte of flags (kind, taken, section, warmup).
    Capture pays the full generator cost once; {!replay} then drives
    any consumer over the identical stream with an allocation-free
    inner loop that is an order of magnitude cheaper than re-running
    the generator — the capture/replay methodology the paper applies
    with Pin, where one instrumented execution feeds every analysis.

    Storage is chunked: instructions are appended to fixed-capacity
    chunks ({!default_chunk_capacity}), so capture never copies or
    resizes a multi-million-entry array and multi-million-instruction
    traces allocate in bounded, GC-friendly pieces.

    Each chunk also carries two side indexes — the positions of
    conditional branches and of taken non-syscall/non-return branches
    (fetch redirects) — plus non-warmup per-section instruction
    counts, so branch-level tools can replay only the instructions
    they act on ({!replay_conditionals}, {!replay_redirects}) and
    recover exact MPKI denominators from {!counted} without touching
    the ~90% of the stream they would ignore.

    A packed trace contains only immutable arrays after capture: it
    is safe to {!replay} the same trace from several domains at once
    (each replay call allocates its own scratch {!Inst.t}), and it
    round-trips through [Marshal] — {!Repro_core.Cache} can persist
    it. Replay reuses one mutable record per call; consumers must
    {!Inst.clone} anything they retain, exactly as with live traces.

    When {!Repro_util.Telemetry} is enabled, capture runs under a
    [trace.capture] span and bumps [trace.bytes]/[trace.insts];
    replays run under [trace.replay] spans. *)

type t

val default_chunk_capacity : int
(** Instructions per storage chunk (65536). *)

val of_trace : ?chunk_capacity:int -> Trace.t -> t
(** Run the trace once and capture every instruction. Raises
    [Invalid_argument] if an instruction's size is outside [1..255]
    (the byte-per-entry size column; real ISAs fit with room). *)

val length : t -> int
(** Total captured instructions, warmup included. *)

val counted : t -> int * int
(** [(serial, parallel)] non-warmup instruction counts — the MPKI
    denominators every statistics tool derives from the stream. *)

val byte_size : t -> int
(** Approximate heap footprint of the packed representation in
    bytes (used for the replay-cache byte budget). *)

val replay : t -> (Inst.t -> unit) -> unit
(** Drive a consumer over the full captured stream, in order. The
    pushed record is reused across callbacks; no allocation happens
    per instruction. *)

val replay_conditionals : t -> (Inst.t -> unit) -> unit
(** Replay only the [Cond_branch] instructions (warmup ones
    included), in order — everything a conditional-branch predictor
    observes. *)

val replay_redirects : t -> (Inst.t -> unit) -> unit
(** Replay only taken branches excluding syscalls and returns
    (warmup ones included), in order — everything a BTB observes. *)

val to_trace : t -> Trace.t
(** The replay as an ordinary re-runnable {!Trace.t}. *)
