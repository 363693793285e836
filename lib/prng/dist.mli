(** Random distributions over a {!Rng.t} source.

    These samplers cover the workload families used across the paper's
    experiments: short-range uniform workloads, memoryless (exponential)
    service times, heavy-tailed (Pareto, lognormal) task mixes typical of
    MapReduce traces, and bimodal short/long mixes that stress list
    scheduling. *)

val log_uniform : Rng.t -> lo:float -> hi:float -> float
(** Log-uniform on [[lo, hi)]: uniform in the exponent. Requires
    [0 < lo <= hi]. *)

val fill_log_uniform : Rng.t -> float array -> lo:float -> hi:float -> unit
(** [fill_log_uniform rng a ~lo ~hi] overwrites [a] in index order with
    {!log_uniform} draws (the same values from the same stream) without
    allocating. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential with the given mean ([mean > 0]). *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** Pareto with minimum [scale] and tail index [shape] (both [> 0]).
    Heavy-tailed for [shape <= 2]. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian (Box-Muller) with parameters [mu], [sigma]. *)

val bimodal :
  Rng.t -> p_long:float -> short:(Rng.t -> float) -> long:(Rng.t -> float) -> float
(** With probability [p_long] sample from [long], otherwise from [short]. *)
