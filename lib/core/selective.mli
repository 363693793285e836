(** Selective replication (the paper's future-work cost model).

    The conclusion suggests replicating "only some critical tasks" to
    limit memory usage. This extension replicates the [count] largest
    estimated tasks everywhere and pins the rest with LPT — the critical
    tasks are exactly the ones whose misestimation hurts the makespan
    most, while the memory overhead stays [count · s] instead of
    [n · s]. *)

module Instance = Usched_model.Instance

val placement : count:int -> Instance.t -> Placement.t
(** Full sets for the [count] largest estimates, LPT singletons for the
    others. [count] is clamped to [0..n]: [0] is LPT-No Choice's
    placement, [n] LPT-No Restriction's. *)
