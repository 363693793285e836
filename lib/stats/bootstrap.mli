(** Bootstrap confidence intervals.

    A nonparametric percentile-bootstrap interval for a sample mean,
    for samples too small or too skewed for a normal approximation
    (e.g. the per-profile survival indicators of the reliability
    sweep). *)

type interval = { lo : float; hi : float; point : float }

val mean_interval :
  ?resamples:int -> ?confidence:float -> rng:Usched_prng.Rng.t -> float array -> interval
(** [mean_interval ~rng data] draws [resamples] (default 1000)
    bootstrap resamples of [data] with replacement and returns the
    percentile interval of their means at [confidence] (default 0.95),
    with the sample mean as the point estimate. Each resample is summed
    as it is drawn, never built. Raises [Invalid_argument] on empty
    data, a confidence outside (0, 1) or fewer than one resample. *)
