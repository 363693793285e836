(** Per-task replication budgets (the paper's future-work cost model).

    The conclusion proposes charging each replica and letting every task
    have its own replication allowance. This module implements the
    natural greedy policy for that model: tasks are placed in LPT order,
    and task [j] puts its data on the [k_j] machines that currently have
    the least estimated load — its primary copy on the least-loaded one,
    the remaining [k_j - 1] replicas on the next-least-loaded machines.
    Phase 2 is online LPT restricted to each task's machine set.

    The policy interpolates the paper's regimes exactly: all budgets 1
    is LPT-No Choice; all budgets [m] is LPT-No Restriction. Unlike
    LS-Group, the machine sets of different tasks overlap freely, so a
    replication factor that does not divide [m] is meaningful — one of
    the "more general replication policies" the paper calls for. *)

module Instance = Usched_model.Instance

val placement : budgets:int array -> Instance.t -> Placement.t
(** [placement ~budgets instance] builds the greedy placement. Each
    budget is clamped to [1..m], so all budgets [k] give every task the
    same [k] replicas. Raises [Invalid_argument] if the budget array's
    length differs from the instance. *)

val proportional_placement : fraction:float -> Instance.t -> Placement.t
(** Budget scaled by estimate rank: the largest [fraction] of tasks (by
    estimate) get budget [m], the rest budget 1 — the "replicate only
    critical tasks" policy with an explicit cost knob. Raises
    [Invalid_argument] unless [fraction] is in [0, 1]. *)
