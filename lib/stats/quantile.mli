(** Quantiles of finite samples.

    All functions work on a copy of the input, so callers' arrays are never
    reordered. Quantiles use linear interpolation between order statistics
    (type-7 estimator, the R/NumPy default). Samples are sorted with
    [Float.compare]; NaN inputs are rejected with [Invalid_argument]
    rather than silently poisoning the order statistics. *)

val quantile : float array -> q:float -> float
(** [quantile a ~q] with [0 <= q <= 1]. Raises [Invalid_argument] on an
    empty array, out-of-range [q], or a NaN sample. *)

val median : float array -> float
(** [quantile ~q:0.5]. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)]. *)

val quantiles : float array -> qs:float array -> float array
(** Batched {!quantile}, sorting the input only once. *)
