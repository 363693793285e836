(** Speed-robust placement: hedge each task's replicas across machine
    speed classes.

    The speed-uncertain model (Eberle et al., see
    [Usched_model.Speed_band]) commits the placement before machine
    speeds are revealed inside their bands. A placement that stacks all
    of a task's replicas on machines that can end up equally slow has no
    hedge; this family partitions the machines into [k] {e speed
    classes} (by pessimistic in-band speed, fastest class first) and
    gives every task exactly one replica per class, choosing inside each
    class the machine with the earliest pessimistic completion. However
    the adversary splits the bands, every task keeps a replica on a
    machine from every speed tier, and phase 2's list scheduling picks
    whichever revealed speed serves it first.

    With no band attached (or a uniform band), classes degenerate to a
    plain least-loaded partition and the family behaves like [budgeted]
    replication with class-disjoint replicas — still a hedge, just an
    undirected one. *)

module Instance = Usched_model.Instance

val classes : k:int -> Instance.t -> int array array
(** The machine partition the placement hedges across: machines sorted
    by decreasing pessimistic band speed (ties by id), split into [k]
    contiguous classes of near-equal size, fastest first. Raises
    [Invalid_argument] unless [1 <= k <= m]. *)

val placement : k:int -> Instance.t -> Placement.t
(** The [speedrobust:K] placement: every task gets one replica in each
    of the {!classes}, greedily balancing estimated pessimistic finish
    times inside each class, tasks in LPT order. Tasks with the same
    machine choice in every class share one set, so list-priority
    dispatch groups them into buckets instead of scanning per-machine
    cursors; the sets are shared, so do not mutate them. Raises
    [Invalid_argument] unless [1 <= k <= m]. *)
