(** Minimal CSV writing (RFC 4180 quoting).

    Experiments can dump their raw series for external plotting. *)

val to_string : header:string list -> string list list -> string
(** Full document with header line, one line per row; a field
    containing a comma, quote, or newline is quoted, with quotes
    doubled. Raises [Invalid_argument] if a row's arity differs from the
    header. *)
