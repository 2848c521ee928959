(** Structured failure taxonomy for supervised execution.

    Bare exception propagation gives a supervisor nothing to decide
    with; this module classes every failure so the {!Engine} can
    retry what is worth retrying and surface the rest as data instead
    of a crash:

    - [Transient]: worth retrying — injected faults
      ({!Repro_util.Faults.Injected}), I/O blips ([Sys_error]), and
      tasks abandoned because a sibling failed first.
    - [Fatal]: everything else (programming errors, fatal runtime
      conditions). Never retried. *)

type klass = Transient | Fatal

type t = {
  klass : klass;
  site : string;  (** fault site or subsystem, e.g. ["engine.task"] *)
  message : string;
  attempts : int;  (** attempts made before giving up (>= 1) *)
}

exception Error of t
(** The taxonomy as an exception, for the boundaries that must still
    raise (strict mode). *)

val v : ?site:string -> ?attempts:int -> klass -> string -> t

val classify : exn -> klass
(** [Transient] for {!Repro_util.Faults.Injected}, [Sys_error] and
    transient-classed {!Error}s; the carried class for other
    {!Error}s; [Fatal] for anything else. *)

val of_exn : ?attempts:int -> exn -> t
(** Wrap an arbitrary exception, preserving an existing {!Error}
    payload (with [attempts] updated when given). *)

val capturable : exn -> bool
(** Whether supervision may capture the exception as a value.
    [false] for [Out_of_memory], [Stack_overflow] and [Sys.Break]:
    those must keep unwinding. *)

val klass_to_string : klass -> string
val to_string : t -> string
(** One line, e.g.
    ["transient fault at engine.task after 3 attempts: injected fault"]. *)
