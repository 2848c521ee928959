(** RSRV1 length-framed messages over a file descriptor.

    Every message is one {e frame}:

    {v RSRV1 <decimal payload length>\n<payload bytes> v}

    Shared by the {!Server} daemon (arbitrary, possibly hostile
    clients) and the {!Dispatch} coordinator/worker channel (a peer
    that can die at any instruction): both need the same failure
    taxonomy, and a payload produced by one layer parses identically
    in the other. *)

val magic : string
(** Header prefix, ["RSRV1 "]. *)

val max_frame : int
(** Hard cap on declared payload length (32 MiB): a longer
    declaration is a protocol error, not an allocation request. *)

type error =
  | Closed  (** clean EOF before any header byte *)
  | Torn  (** EOF inside a header or declared payload *)
  | Oversized of int  (** declared length above the cap *)
  | Garbage of string  (** header is not [RSRV1 <int>] *)

val error_to_string : error -> string

val read : ?max_bytes:int -> Unix.file_descr -> (string, error) result
(** Read one frame, blocking; returns the payload. *)

val write : Unix.file_descr -> string -> int
(** Write one frame; returns total bytes written (header included).
    Raises [Unix.Unix_error] ([EPIPE], ...) if the peer is gone. *)
