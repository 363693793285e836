(** Online descriptive statistics.

    Accumulates count, mean, min and max in a single pass; the mean
    uses Welford's numerically stable running update. Used by experiment
    runners to summarize measured ratios across many random
    repetitions. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** Fold one observation in. *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val of_array : float array -> t
(** Summary of an array in one call. *)
