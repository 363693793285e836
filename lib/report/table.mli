(** Aligned ASCII tables.

    The experiment harness prints every reproduced paper table through
    this renderer so the output is stable and diff-friendly. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** A table with the given header. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] on arity mismatch. *)

val render : t -> string
(** The full table with borders and a header rule. *)

val cell_float : ?decimals:int -> float -> string
(** Formats a float for a table cell (default 4 decimals; integers shed
    their trailing zeros). *)
