(** Decimal text of floats and ints without libc's printf and strtod.

    The instance files and run traces write and read millions of
    numbers; this module renders [%.17g], the JSON float rule and ints
    straight into bytes, and parses plain decimal fields, with exact
    integer arithmetic and without allocating, and hands everything
    outside its exact range to the C primitive or back to the caller.
    The exactness arguments are in DESIGN.md ("Float text").

    {2 Writers}

    Each writer renders one number into [b] from byte [p] on and returns
    the position after its last byte. Digits go eight at a time: a word
    of eight ASCII digits is built in one int and stored with one 64-bit
    write. The stores may run up to 7 bytes past the returned position
    (bytes the next write overwrites), so [b] must have
    {!room} bytes from [p] on; a writer fails with [Invalid_argument]
    rather than write outside [b]. A float is read out of its column,
    so the caller boxes nothing. *)

val room : int
(** The bytes any one writer below may touch from its starting
    position: 32. The longest text is 24 bytes ([-2.2250738585072014e-308]). *)

val write_int : Bytes.t -> int -> int -> int
(** [write_int b p i] writes the decimal digits of [i], as
    [string_of_int] prints them. *)

val write_g17 : Bytes.t -> int -> float array -> int -> int
(** [write_g17 b p column j] writes [Printf.sprintf "%.17g" column.(j)]. *)

val write_json_float : Bytes.t -> int -> float array -> int -> int
(** [write_json_float b p column j] writes [column.(j)] as
    [Usched_report.Json] renders a float: the first of [%.12g] and
    [%.17g] that parses back to it, or [null] when it is not finite. *)

(** {2 Parsers} *)

val store_decimal : int -> int -> int -> float array -> int -> bool
(** [store_decimal d n q column j] decides the plain decimal field whose
    [n <= 17] significant digits (leading zeros dropped) spell [d] and
    which has [q] digits after its point: when the exact rules give the
    value [float_of_string] returns for it, that value is stored in
    [column.(j)] and the result is [true]; otherwise (more than 22
    digits after the point, or a value they cannot decide) the result is
    [false] and [column] is left alone. {!parse_into} and the instance
    reader's one-pass rows scan their fields and share this decision. *)

val parse_into : string -> int -> int -> float array -> int -> bool
(** [parse_into text start stop column j] stores in [column.(j)] the
    value [float_of_string] returns for the field
    [text.[start .. stop-1]] and returns [true], when the field is plain
    ASCII digits with at most one inner point followed by a digit, at
    most 17 significant digits, at most 22 after the point, and the
    exact rules decide its value. Otherwise it returns [false] and
    leaves [column] alone; the caller converts the field itself. *)
