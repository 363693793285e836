(** The lexical layer shared by every spec grammar: strategy, dispatch
    policy, recovery target, arrival, workload, failure profile, speed
    band and topology, on the command line and in instance headers.

    One rule holds in all of them. A spec splits into fields on its
    separators and no field is trimmed, so a space is an error. A
    number is a plain decimal [[+-]digits[.digits][e[+-]digits]] or
    [inf]; an integer is [[+-]digits]. Underscores, hexadecimal, [nan]
    and surrounding blanks are errors. *)

type _ kind =
  | Int : int kind  (** [[+-]digits] that fits an [int]. *)
  | Nat : int kind  (** an [Int] [>= 0]. *)
  | Number : float kind  (** a plain decimal or [inf]. *)
  | Positive : float kind  (** a [Number], finite and [> 0]. *)
  | Prob : float kind  (** a [Number] in [[0, 1]]. *)
  | List : char * 'a kind -> 'a list kind
      (** fields split on the separator, each read as the inner kind. *)

val read : 'a kind -> string -> string -> ('a, string) result
(** [read kind what raw] reads [raw] as [kind]. The [Error] names the
    field [what] and the offending text, e.g. [cross-zone bandwidth
    "nan" is not a number]. *)

val with_grammar : string -> ('a, string) result -> ('a, string) result
(** [with_grammar grammar r] ends an [Error] message with
    ["; expected " ^ grammar]. *)

val float_to_string : float -> string
(** [%.12g] when it reads back as the same float, else [%.17g]: short
    and bit-exact. Infinity prints as [inf]. *)
