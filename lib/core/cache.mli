(** Persistent on-disk characterization cache.

    Trace-derived measurements are pure functions of a benchmark's
    profile, the instruction-budget scale, and the measurement code
    itself, so they are cached across processes under [_cache/],
    keyed by [(profile digest, scale, tool-set version)]. Entries are
    written atomically (temp file + rename) and loads are
    corruption-tolerant: a truncated, garbled, or stale-version file
    is treated as a miss and recomputed, never as an error.

    Writes go through an exclusive temp file with a distinct [.tmp]
    suffix followed by an atomic rename, so a concurrent {!clear}
    (which only touches finished [.bin] entries) can never delete an
    in-flight write, and {!entries} never counts one. Each entry
    carries a payload digest in its header {e and} repeated in a
    trailer after the payload, so a torn write (a crash that left a
    prefix at the final path, e.g. on a filesystem without atomic
    rename) can never be decoded as data. An entry that fails any of
    these checks is {e quarantined} — renamed aside with a [.bad]
    suffix, counted in {!quarantined} and in the
    [cache.quarantined] telemetry counter — instead of silently
    shadowed; the lookup then misses and recomputes.

    Fault-torture runs drive the [cache.read], [cache.decode],
    [cache.write] and [cache.write.torn] sites of
    {!Repro_util.Faults} through this module; all four are
    self-healing (the simulated failure degrades to a miss, a
    dropped store, or a quarantined entry — never wrong data).

    The cache is disabled by [REPRO_CACHE=0] (or [set_enabled false]);
    [REPRO_CACHE_DIR] overrides the directory. Hits and misses are
    counted in {!Engine.stats}; when {!Repro_util.Telemetry} is
    enabled, [cache.find]/[cache.store] spans record lookup and write
    latency and [cache.read_bytes]/[cache.write_bytes]/[cache.hits]/
    [cache.misses] counters record traffic. *)

val version : string
(** Tool-set version baked into every key. Bump it whenever the trace
    generator or an analysis tool changes behaviour: old entries then
    miss instead of serving stale measurements. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val dir : unit -> string
val set_dir : string -> unit

type key

val key : profile:Repro_workload.Profile.t -> scale:float -> kind:string -> key
(** [kind] names the value type stored under the key (e.g. ["charz"],
    ["cmp"]); distinct kinds never collide. The profile is digested
    through its full {!Repro_workload.Profile_io} text, so any
    parameter change yields a fresh key. Each profile value is digested
    once (another value under the same name is digested afresh). *)

val path : key -> string
(** Absolute or cwd-relative file the entry lives in. *)

val find : key -> 'a option
(** [None] on miss, disabled cache, or undecodable entry; an
    undecodable entry is quarantined ([.bad] rename) on the way out.
    The caller must request the same type that was stored under this
    key's [kind] — the payload is deserialized with [Marshal]. Only
    I/O failures ([Sys_error]) and decode-tagged [Marshal] failures
    read as misses; any other exception — fatal runtime exceptions
    ([Out_of_memory], [Stack_overflow]) or a [Failure] raised by
    anything but the deserializer — propagates. *)

val store : key -> 'a -> unit
(** Best-effort for I/O only: [Sys_error] (read-only disk, etc.) is
    swallowed — the result of the computation is never at risk.
    Fatal runtime exceptions and [Marshal] rejecting the value (e.g.
    a closure) propagate. *)

val memoize : key -> (unit -> 'a) -> 'a
(** [find] or compute-and-[store], counting the hit or miss in
    {!Engine.stats}. With the cache disabled the computation runs
    directly and no counter moves. *)

val clear : unit -> unit
(** Delete every finished cache entry on disk, including quarantined
    [.bad] files (the directory itself stays). In-flight [.tmp] files
    of concurrent writers are left alone; their renames land after
    the clear. *)

val entries : unit -> int
(** Number of finished cache entries currently on disk; in-flight
    temp files and quarantined [.bad] files are not counted. *)

val quarantined : unit -> int
(** Number of quarantined ([.bad]) entries currently on disk. *)
