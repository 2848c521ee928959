(** Plain-text table rendering for experiment reports.

    Every benchmark harness prints its figure/table reproduction through
    this module so the output format stays uniform. *)

type align = Left | Right | Center

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given header cells. *)

val add_row : t -> string list -> unit
(** Appends a data row. Rows shorter than the header are padded with
    empty cells; longer rows raise [Invalid_argument]. *)

val add_separator : t -> unit
(** Inserts a horizontal rule between the rows added before and after.
    A separator with no row after it renders nothing: the table's
    closing rule already ends it. *)

val render : t -> string
(** Renders the table with box-drawing in plain ASCII. *)

val to_csv : t -> string
(** RFC-4180-style CSV: header row then data rows (separators are
    dropped); cells containing commas/quotes/newlines are quoted. *)

val title : t -> string option
val headers : t -> string list
val rows : t -> string list list
(** Data rows in insertion order (separators excluded). *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

(** {1 Cell formatting helpers} *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point with default 2 decimals; [nan] renders as ["-"]. *)

val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct 0.123] is ["12.3%"] (argument is a fraction). *)

val fmt_ratio : float -> string
(** Normalized quantity, e.g. ["1.00x"]. *)
