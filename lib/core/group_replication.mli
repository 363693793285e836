(** Strategy 3: replication in groups ([|M_j| = m/k], Section 5.3).

    Machines are partitioned into [k] groups; phase 1 assigns each task's
    data to all machines of one group with List Scheduling over groups;
    phase 2 runs List Scheduling online inside each group. *)

module Instance = Usched_model.Instance

val machine_groups : m:int -> k:int -> int array array
(** Partition [0..m-1] into [k] contiguous groups. When [k] divides [m]
    all groups have [m/k] machines (the paper's setting); otherwise the
    first [m mod k] groups get one extra machine (our extension). Raises
    [Invalid_argument] unless [1 <= k <= m]. *)

val group_assignment :
  order:[ `Submission | `Lpt ] -> k:int -> Instance.t -> int array
(** Phase-1 group index per task: greedy assignment of estimated times to
    the [k] groups, each group weighted by its machine count (equal
    weights in the paper's divisible case). *)

val placement : order:[ `Submission | `Lpt ] -> k:int -> Instance.t -> Placement.t
(** Every task on all machines of its {!group_assignment} group: the
    paper's {b LS-Group} with [order = `Submission] (Theorem 4), or the
    ablation with LPT order in both phases (the paper argues this should
    not have a much better guarantee — §5.3 closing remark). *)
