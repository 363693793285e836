(** Fixed-bin histograms with a terminal rendering.

    Used by experiment reports to show the empirical distribution of
    measured competitive ratios, and by the streaming service mode for
    per-task latency distributions. *)

type t
(** An immutable histogram over [[lo, hi]] with equal-width bins. *)

val of_data : ?bins:int -> float array -> t
(** [of_data ~bins data] counts each datum into one of [bins]
    equal-width bins (default 10) spanning the data's range (empty data
    yields the range [[0, 1]]; all-equal data the range [[x, x + 1]]);
    the maximum lands in the last bin. Raises [Invalid_argument] if
    [bins <= 0] or on NaN samples — a NaN range would otherwise produce
    garbage bins. *)

val pp : Format.formatter -> t -> unit
(** Multi-line bar rendering, one line per bin. *)
