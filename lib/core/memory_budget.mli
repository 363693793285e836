(** Replication under a hard per-machine memory capacity.

    The memory-aware section of the paper treats [Mem_max] as an
    objective; real systems more often have a hard per-machine budget.
    This module turns the paper's insight around: start from an
    unreplicated LPT placement (repaired to fit the budget if needed),
    then spend whatever memory headroom remains on replicas of the most
    processing-time-critical tasks, largest first, round-robin, until no
    replica fits. The result interpolates between LPT-No Choice (tight
    budget) and LPT-No Restriction (ample budget), with [Mem_i <= budget]
    guaranteed on every machine. *)

module Instance = Usched_model.Instance

exception Infeasible of string
(** Raised when even an unreplicated placement cannot fit: a single task
    larger than the budget, or total size above [m * budget]. *)

val placement : budget:float -> Instance.t -> Placement.t
(** The greedy budget-constrained placement described above. Raises
    {!Infeasible} when no replica-free placement fits, and
    [Invalid_argument] if [budget <= 0]. *)

val max_memory_load : Instance.t -> Placement.t -> float
(** Convenience re-export of the placement's memory high-water mark. *)
