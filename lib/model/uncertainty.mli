(** The bounded multiplicative uncertainty model of the paper.

    The scheduler knows an estimate [p̃_j] and a factor [α >= 1] such that
    the actual time satisfies [p̃_j/α <= p_j <= α·p̃_j] (Equation 1 of the
    paper). This module makes [α] an abstract validated type so an invalid
    factor can never enter an instance. *)

type alpha
(** An uncertainty factor, guaranteed [>= 1]. *)

val alpha : float -> alpha
(** Validates and wraps a factor. Raises [Invalid_argument] when [< 1]
    or not finite. *)

val to_float : alpha -> float

val admissible : alpha -> est:float -> actual:float -> bool
(** Whether an actual time is consistent with Equation 1 (with a 1e-9
    relative tolerance for float round-off). *)

val first_inadmissible : alpha -> ests:float array -> actuals:float array -> int
(** The first index [j] whose [actuals.(j)] is not {!admissible} for
    [ests.(j)], or [-1] when every one is. Both arrays must have the
    same length. Allocation-free. *)

val clamp : alpha -> est:float -> float -> float
(** Project a value onto the admissible interval. *)

val pp : Format.formatter -> alpha -> unit
