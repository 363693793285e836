(** Figure 3: the ratio-replication tradeoff ([m = 210],
    [α ∈ {1.1, 1.5, 2}]).

    For every divisor [k] of 210, plots the LS-Group guarantee against
    the replication degree [m/k], together with the strategy-1 points
    (LPT-No Choice guarantee and the Theorem-1 impossibility at
    replication 1) and the strategy-2 point (LPT-No Restriction at
    replication [m]). A second series shows measured ratios from random
    workloads at selected replication degrees, confirming the shape:
    a few replicas already recover most of the makespan guarantee. *)

val run : Runner.config -> unit
