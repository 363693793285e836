(** Bootstrap confidence intervals.

    Nonparametric percentile-bootstrap intervals for statistics whose
    sampling distribution is awkward (e.g. the {e maximum} measured
    ratio of an experiment sweep, where a normal approximation does not
    apply). *)

type interval = { lo : float; hi : float; point : float }

val interval :
  ?resamples:int ->
  ?confidence:float ->
  statistic:(float array -> float) ->
  rng:Usched_prng.Rng.t ->
  float array ->
  interval
(** [interval ~statistic ~rng data] draws [resamples] (default 1000)
    bootstrap resamples with replacement, evaluates [statistic] on each,
    and returns the percentile interval at [confidence] (default 0.95)
    along with the point estimate on the original data. Raises
    [Invalid_argument] on empty data or a confidence outside (0, 1). *)

val mean_interval :
  ?resamples:int -> ?confidence:float -> rng:Usched_prng.Rng.t -> float array -> interval
(** {!interval} with the sample mean, bit for bit, drawing the same
    variates from [rng]; it sums each resample as it is drawn instead of
    building it. *)
