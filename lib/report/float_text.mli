(** Decimal text of floats and ints without libc's printf and strtod.

    The instance files and run traces write and read millions of
    numbers; this module renders [%.17g] and parses plain decimal
    fields with exact integer arithmetic, allocation-free, and hands
    everything outside its exact range to the C primitive or back to
    the caller. The exactness arguments are in DESIGN.md ("Float
    text"). *)

val format_float : string -> float -> string
(** The C primitive behind [Printf]'s float conversions, for one float
    and one format such as ["%.17g"]: the fallback of every rendering
    below. *)

val add_int : Buffer.t -> int -> unit
(** Appends the decimal digits of an int, as [string_of_int] prints
    them. *)

val decimal17 : float -> int
(** The exactly rounded (half even) 17 significant digits [d] and
    decimal exponent [e] of [|x|], as [(d lsl 5) lor (e + 5)], when
    [%.17g] prints [x] without an exponent (that is, [e] in
    [\[-4, 16\]]); [-1] otherwise (non-finite, below [1e-5] or from
    [1e17] on). [d] is in [\[10^16, 10^17)], so
    [|x| ~ d * 10^(e - 16)]; zero gives [d = 0], [e = 0]. *)

val add_fixed : Buffer.t -> negative:bool -> int -> precision:int -> exp:int -> unit
(** [add_fixed buf ~negative d ~precision ~exp] appends what [%g] with
    that precision prints for the value whose [precision] significant
    digits are [d] and whose decimal exponent is [exp], for [exp] in
    [\[-4, precision - 1\]]: no exponent, the fraction's trailing zeros
    and a bare point stripped, a leading ['-'] when [negative]. *)

val add_g17 : Buffer.t -> float array -> int -> unit
(** [add_g17 buf column j] appends [Printf.sprintf "%.17g" column.(j)].
    It reads the float out of the array itself, so the caller boxes
    nothing. *)

val decimal_equals : int -> int -> float -> bool
(** [decimal_equals d e x] is whether the decimal [d * 10^e] reads back
    as [|x|] ([float_of_string]'s correctly rounded value), for
    [0 <= d < 2^53] and [e] in [\[-22, 22\]]: Clinger's exact rule, one
    correctly rounded multiplication or division. *)

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
