(** Reliability-targeted replication: solve for {e how much} to
    replicate, not just where.

    The paper fixes the replication degree [k] as an input; this family
    sizes each task's replica set against an explicit survival target
    instead, the way replicated storage systems pick [(N, K)] against a
    reliability threshold from per-node failure probabilities. Given a
    per-machine failure profile ({!Usched_model.Failure.t}, attached to
    the instance or the documented uniform default) and a target
    [T ∈ (0, 1)], the solver guarantees

    {v P(no task is stranded) >= T v}

    under the static independent-failure model — a task is stranded
    when every machine in its replica set fails. It splits the failure
    budget [1 - T] evenly over the [n] tasks (a union bound, so the
    guarantee is conservative) and solves each task greedily: primary on
    the least estimated-loaded machine (LPT order, the {!Budgeted}
    idiom, so makespans stay competitive), then the most reliable
    remaining machines until [P(all replicas lost) <= (1 - T) / n],
    accumulated in log space. Replication degrees therefore vary per
    task with the profile — reliable clusters get singletons, flaky
    ones replicate more — which is what the variable-degree engine
    plumbing ([Placement.replication], [Recovery.Degree]) exists for.

    The memory-budget-constrained variant restricts every choice to
    machines with at least the task's size of headroom left under a
    per-machine budget [B], and raises {!Infeasible} when the target and
    the budget cannot both be met. *)

module Instance = Usched_model.Instance

exception Infeasible of string
(** The target cannot be met: every candidate machine is exhausted (all
    already hold the task, fail with probability 1, or lack memory
    headroom under the budget) while the task's loss probability still
    exceeds its share of the failure budget. *)

val placement : ?budget:float -> target:float -> Instance.t -> Placement.t
(** The greedy cheapest replica-set solve described above, from the
    instance's failure profile, or [Failure.default_p] uniformly when it
    has none. Raises [Invalid_argument] unless [target ∈ (0, 1)] (NaN
    rejected) and [budget], when given, is positive and finite, and
    {!Infeasible} when the target is unreachable. *)

val survival_bound : Instance.t -> Placement.t -> float
(** [max 0 (1 - Σ_j P(all of M_j fail))], the union bound from the
    instance's (or default) profile: the analytic lower bound on
    [P(no stranded task)] that solver placements hold at [>= target]. *)
