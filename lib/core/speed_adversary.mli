(** The adversarial speed revelator: worst-case in-band machine speeds
    against a committed placement.

    The dual of {!Adversary}: there the adversary picks task actuals
    inside [[p̃/alpha, alpha·p̃]] after seeing the placement; here it
    picks machine speeds inside their bands ([Usched_model.Speed_band]).
    The same structure carries over — the worst case is at an extreme
    point (makespan is monotone in each machine's speed only through the
    schedule, but slowing a machine never helps it, so the interesting
    corners are [{lo_i, hi_i}^m]) — and so does the search recipe:
    an exact corner search for small [m], a greedy
    slow-the-critical-replica-holders descent beyond that.

    The corner search need not replay all [2^m] corners. A replay's
    makespan has an upper bound ({!makespan_bound}) that costs a few
    sums per corner; corners are replayed by descending bound until the
    next bound falls strictly below the worst makespan found, and
    every corner that ties the maximum has a bound at least the maximum,
    so none is skipped and the reported corner is full enumeration's.

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

val makespan_bound :
  Instance.t -> actuals:float array -> Placement.t -> float array -> float
(** [makespan_bound instance ~actuals placement speeds] bounds from above
    the makespan of a healthy {!Usched_desim.Engine.run} of [placement]
    at [speeds], under every dispatch policy (all are work-conserving).

    Proof sketch. Let task [j] start at [t_j] and write [g = M_j].
    Every machine of [g] holds [j], so none idles before [t_j]; each
    runs only tasks whose replica sets meet [g]. A task [k] run on
    machine [i] is [a_k + st_(k,i)·s_i] units of work, its actual time
    plus the cross-zone staging time charged at the machine's speed, as
    the engine charges it. Hence [S(g)·t_j <= W(g)], where [S(g)] sums
    the speeds over [g] and [W(g)] sums [a_k + st_k·max_(i∈g) s_i] over
    every task [k] whose set meets [g], with [st_k] the largest staging
    time of [k] onto its own set. Task [j] then runs for at most
    [a_j / min_(i∈g) s_i + st_j], so

    [C_max <= max_g (W(g)/S(g) + max_(M_j=g) a_j / min_(i∈g) s_i
    + max_(M_j=g) st_j)].

    The result is inflated by a relative [1e-9], which covers the float
    summation error of the replay and of the bound for any instance that
    fits in memory; a set without machines gives [infinity]. Partial
    application groups the tasks by distinct replica set
    ({!Placement.distinct_sets}) once, so each call costs
    O(sets · m) with no per-task work. Raises [Invalid_argument] when
    [actuals] or the placement disagree with the instance's task count,
    or [speeds] with its machine count. *)

val exhaustive :
  ?domains:int ->
  ?bound:(float array -> float) ->
  run:(float array -> float) ->
  Speed_band.t ->
  float array * float
(** The exact worst corner: every machine at [lo] or [hi], all [2^m]
    combinations, returning the speeds and makespan of the worst (the
    first in mask order among ties, where bit [i] set means machine [i]
    at [lo]).

    [bound], when given, must satisfy [run speeds <= bound speeds] at
    every corner. The corners are then replayed by descending bound
    (ties in mask order), [domains] at a time, until the next bound is
    strictly below the worst makespan so far; the result is bit-identical
    to full enumeration's. Without it all [2^m] corners are replayed.

    [domains] (default 1) shards the corner evaluations over that many
    domains; [run] must then be safe to call concurrently on disjoint
    speed arrays (the engine replays used in practice are). The result
    is bit-identical at any domain count. Raises [Invalid_argument]
    for [m > 16]. *)

val worst_case :
  ?candidates:float array list ->
  ?domains:int ->
  ?bound:(float array -> float) ->
  run:(float array -> float) ->
  Instance.t ->
  Placement.t ->
  Speed_band.t ->
  float array * float
(** The composite adversary: exhaustive corners when
    [m <= 10] (parallelized over [domains] and
    pruned by [bound] as in {!exhaustive}), the greedy descent in decreasing
    {!critical_load} order otherwise, plus the all-slow, all-fast and
    midpoint revelations and every extra [candidates] entry (e.g. the
    Monte-Carlo draws of a paired experiment — folding them in makes the
    adversarial makespan dominate every sampled one by construction).
    Returns the worst (speeds, makespan). On a degenerate band the only
    revelation is the band itself. Raises [Invalid_argument] when a
    candidate leaves the band or machine counts disagree. *)
