(** Placements: the output of phase 1.

    A placement gives, for every task [j], the set of machines [M_j] whose
    local storage holds a replica of the task's input data. Phase 2 may
    execute a task only on a machine in its set. *)

module Bitset = Usched_model.Bitset
module Holders = Usched_model.Holders
module Instance = Usched_model.Instance
module Topology = Usched_model.Topology

type t
(** A placement holds its sets interned ({!Holders.t}), built once when
    the placement is: the scans below, and every replay of it, read the
    table and the index in place. *)

val of_sets : m:int -> Bitset.t array -> t
(** Wraps explicit machine sets, interned once here. Raises
    [Invalid_argument] if any set is empty or has a capacity other than
    [m]. The placement keeps the first set of each class, not a copy:
    none of the sets may be mutated afterwards. *)

val singletons : m:int -> int array -> t
(** From a phase-1 assignment: task [j] placed only on machine
    [assignment.(j)] (the [|M_j| = 1] regime). Tasks on the same machine
    share one set. The assignment becomes the placement's index
    ({!Holders.of_labels}): the placement takes ownership of it. *)

val full : m:int -> n:int -> t
(** Every task on every machine (the [|M_j| = m] regime), all sharing
    one set. *)

val pinned_or_full : m:int -> replicated:bool array -> int array -> t
(** [pinned_or_full ~m ~replicated assignment]: task [j] on every
    machine when [replicated.(j)], else only on [assignment.(j)], with
    the sets shared as in {!singletons} and {!full}. Takes ownership of
    [assignment], which becomes the index. *)

val of_group_assignment : m:int -> groups:int array array -> int array -> t
(** [of_group_assignment ~m ~groups assignment]: task [j] is replicated on
    all machines of [groups.(assignment.(j))] (the [|M_j| = m/k]
    regime). Takes ownership of [assignment], which becomes the index:
    no per-task set and no hashing. *)

val n : t -> int
val set : t -> int -> Bitset.t
(** The machine set of a task (shared, do not mutate). *)

val sets : t -> Holders.t
(** The interned sets — the representation every engine entry point
    takes. This is the placement's own value, numbered by first
    occurrence over task ids; it is read-only like every set in it, and
    a replay that grows holder sets mid-run (the engine's healer)
    copies it first, so one placement can be replayed any number of
    times, on any number of domains. A group placement has a handful of
    distinct sets however many tasks it holds, so a scan over the table
    replaces one over every task wherever only the sets matter. *)

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
    survives), read off the distinct sets. *)
