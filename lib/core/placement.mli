(** Placements: the output of phase 1.

    A placement gives, for every task [j], the set of machines [M_j] whose
    local storage holds a replica of the task's input data. Phase 2 may
    execute a task only on a machine in its set. *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Topology = Usched_model.Topology

type t

val of_sets : m:int -> Bitset.t array -> t
(** Wraps explicit machine sets. Raises [Invalid_argument] if any set is
    empty or has a capacity other than [m]. The placement takes
    ownership of the array, not a copy: neither it nor any of its sets
    may be mutated afterwards (the whole-placement scans below read a
    summary of them built on first use). *)

val singletons : m:int -> int array -> t
(** From a phase-1 assignment: task [j] placed only on machine
    [assignment.(j)] (the [|M_j| = 1] regime). Tasks on the same machine
    share one set. *)

val full : m:int -> n:int -> t
(** Every task on every machine (the [|M_j| = m] regime), all sharing
    one set. *)

val pinned_or_full : m:int -> replicated:bool array -> int array -> t
(** [pinned_or_full ~m ~replicated assignment]: task [j] on every
    machine when [replicated.(j)], else only on [assignment.(j)], with
    the sets shared as in {!singletons} and {!full}. *)

val of_group_assignment : m:int -> groups:int array array -> int array -> t
(** [of_group_assignment ~m ~groups assignment]: task [j] is replicated on
    all machines of [groups.(assignment.(j))] (the [|M_j| = m/k]
    regime). *)

val n : t -> int
val set : t -> int -> Bitset.t
(** The machine set of a task (shared, do not mutate). *)

val sets : t -> Bitset.t array
(** The per-task sets — the representation used by the desim engine.
    This is the placement's own array, not a copy, and it is read-only
    like every set in it: a caller that needs to write (the engine's
    healer, which grows holder sets mid-run) copies first. *)

val distinct_sets : t -> Bitset.t array * int array
(** [(groups, group_of)]: the distinct machine sets (compared by
    membership), in order of first occurrence over task ids, and each
    task's index into [groups]. Group placements have a handful of
    distinct sets however many tasks they hold, so a scan over [groups]
    replaces one over every task wherever only the sets matter. Both
    arrays are fresh copies of the placement's cached summary. *)

val allowed : t -> task:int -> machine:int -> bool

val replication : t -> int -> int
(** [|M_j|] of a task. *)

val max_replication : t -> int
(** The paper's replication bound [k = max_j |M_j|], read off the
    distinct sets. *)

val total_replicas : t -> int
(** Sum over tasks of [|M_j|]: the global storage cost in replica count,
    summed per distinct set. *)

val memory_loads : t -> sizes:float array -> float array
(** [Mem_i = Σ_{j : i ∈ M_j} s_j] for every machine — each replica
    occupies memory on its machine (memory-aware model). Summed once
    per machine class (machines lying in exactly the same distinct
    sets), in task order, which is bit for bit the per-replica sum.
    Allocates only the result. *)

val memory_max : t -> sizes:float array -> float
(** [Mem_max = max_i Mem_i]. *)

val replication_costs : t -> topology:Topology.t -> sizes:float array -> float array
(** Per-task data-movement cost of realizing the placement: task [j]'s
    data is born on its home machine [j mod m] and must be staged onto
    every other machine of [M_j], paying
    [Topology.staging_time topology ~src:(j mod m) ~dst:i ~size:s_j] per
    replica. Intra-zone copies (and the home replica itself) cost [0],
    so every placement is free on the uniform topology. Raises
    [Invalid_argument] on a [sizes] length or topology machine-count
    mismatch. *)

val replication_cost : t -> topology:Topology.t -> sizes:float array -> float
(** Total transfer cost: sum of {!replication_costs} over all tasks —
    the x-axis of the replication-cost vs. robustness frontier. *)

val survives_any_failure : t -> bool
(** Whether every single-machine failure leaves the workload completable
    (every task has at least two replicas, or [m = 1] trivially never
    survives). *)
