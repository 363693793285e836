(** Strategy 1: no replication ([|M_j| = 1], Section 5.1).

    All decisions happen in phase 1; phase 2 merely executes each task on
    its unique machine. *)

module Instance = Usched_model.Instance

val lpt_assignment : Instance.t -> Assign.result
(** LPT on the estimated times — the phase-1 rule of LPT-No Choice. *)

val placement : order:[ `Submission | `Lpt ] -> Instance.t -> Placement.t
(** Each task pinned to the machine a greedy assignment of the estimates
    gives it: LPT ([`Lpt], the paper's {b LPT-No Choice}, Theorem 2:
    [2α²m/(2α²+m-1)]-competitive) or List Scheduling in submission order
    ([`Submission], an ablation baseline the paper does not analyze). *)
