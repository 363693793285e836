(** The adversarial speed revelator: worst-case in-band machine speeds
    against a committed placement.

    The dual of {!Adversary}: there the adversary picks task actuals
    inside [[p̃/alpha, alpha·p̃]] after seeing the placement; here it
    picks machine speeds inside their bands ([Usched_model.Speed_band]).
    The same structure carries over — the worst case is at an extreme
    point (makespan is monotone in each machine's speed only through the
    schedule, but slowing a machine never helps it, so the interesting
    corners are [{lo_i, hi_i}^m]) — and so does the search recipe:
    exhaustive corner enumeration for small [m], a greedy
    slow-the-critical-replica-holders descent beyond that.

    Every entry point takes the measurement as a closure
    [run : speeds -> makespan] (typically the desim engine replaying the
    placement under those speeds), so the adversary composes with any
    dispatch policy, realization, or fault trace the caller bakes in. *)

module Instance = Usched_model.Instance
module Speed_band = Usched_model.Speed_band

val critical_load : Instance.t -> Placement.t -> float array
(** Per-machine estimated replica load: [sum est(j) / |M_j|] over the
    tasks [j] whose replica set contains the machine — the share of work
    the machine is expected to carry, the greedy adversary's slowdown
    priority. *)

val exhaustive :
  ?domains:int ->
  run:(float array -> float) ->
  Speed_band.t ->
  float array * float
(** The exact worst corner: every machine at [lo] or [hi], all [2^m]
    combinations, returning the speeds and makespan of the worst.
    [domains] (default 1) shards the corner evaluations over that many
    domains; [run] must then be safe to call concurrently on disjoint
    speed arrays (the engine replays used in practice are). The result
    is bit-identical at any domain count. Raises [Invalid_argument]
    for [m > 16]. *)

val worst_case :
  ?exact_limit:int ->
  ?candidates:float array list ->
  ?domains:int ->
  run:(float array -> float) ->
  Instance.t ->
  Placement.t ->
  Speed_band.t ->
  float array * float
(** The composite adversary: exhaustive corners when
    [m <= exact_limit] (default 10, parallelized over [domains] as in
    {!exhaustive}), the greedy descent in decreasing
    {!critical_load} order otherwise, plus the all-slow, all-fast and
    midpoint revelations and every extra [candidates] entry (e.g. the
    Monte-Carlo draws of a paired experiment — folding them in makes the
    adversarial makespan dominate every sampled one by construction).
    Returns the worst (speeds, makespan). On a degenerate band the only
    revelation is the band itself. Raises [Invalid_argument] when a
    candidate leaves the band or machine counts disagree. *)
