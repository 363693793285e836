(** Fixed-bin histograms with a terminal rendering.

    Used by experiment reports to show the empirical distribution of
    measured competitive ratios, and by the streaming service mode for
    per-task latency distributions. *)

type t
(** An immutable histogram over [[lo, hi]] with equal-width bins, plus
    out-of-range tallies. *)

val create : ?bins:int -> lo:float -> hi:float -> float array -> t
(** [create ~bins ~lo ~hi data] counts each datum into one of [bins]
    equal-width bins (default 10). [hi] itself lands in the last bin;
    data strictly outside [[lo, hi]] is tallied as underflow /
    {!overflow} rather than silently folded into the edge bins (folding
    misreports exactly the tails a latency distribution is measured
    for). Raises [Invalid_argument] if [bins <= 0], [lo >= hi], or any
    of [lo], [hi], or the samples is NaN. *)

val of_data : ?bins:int -> float array -> t
(** Like {!create} with [lo]/[hi] taken from the data (empty data yields
    the range [[0, 1]]; all-equal data the range [[x, x + 1]]).
    Raises [Invalid_argument] on NaN samples — a NaN range would
    otherwise slip past {!create}'s [lo >= hi] guard and produce garbage
    bins. *)

val bins : t -> int
val counts : t -> int array

val total : t -> int
(** In-range samples only; [total t + overflow t] plus the samples
    strictly below [lo] is the input length. *)

val overflow : t -> int
(** Samples strictly above [hi]. Always 0 for {!of_data}. *)

val pp : Format.formatter -> t -> unit
(** Multi-line bar rendering; appends an out-of-range line when
    underflow/overflow is non-zero. *)
