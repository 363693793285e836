(** Completed schedules and their quality measures.

    The output of phase 2: for every task, the machine that executed it and
    its start/finish times. Provides the makespan [C_max], per-machine
    loads, and a validator that re-checks every structural property the
    engine is supposed to guarantee (used heavily by the test suite). *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization

type entry = { machine : int; start : float; finish : float }

type t

val make : m:int -> entry array -> t
(** [make ~m entries] wraps per-task entries. Raises [Invalid_argument] on
    negative times, [finish < start], or machines outside [0, m). *)

val of_soa :
  m:int -> machines:int array -> starts:float array -> finishes:float array -> t
(** Struct-of-arrays constructor: takes ownership of the three lanes
    (no copy — callers must not mutate them afterwards) and runs the
    same validation as {!make}. This is the engines' hand-off path; it
    allocates nothing per task. *)

val n : t -> int
val m : t -> int

val entry : t -> int -> entry
(** Entry of a task id. *)

val starts : t -> float array
(** Every task's start time, indexed by task id: the schedule's own
    lane, not a copy, and read-only. A whole-schedule scan reads it
    without building an {!entry} per task. *)

val finishes : t -> float array
(** Every task's finish time, indexed by task id; read-only like
    {!starts}. *)

val machines : t -> int array
(** Every task's machine, indexed by task id; read-only like
    {!starts}. *)

val makespan : t -> float

val by_machine : t -> int array array
(** Every machine's tasks: [(by_machine t).(i)] lists the tasks run by
    machine [i] in increasing start order (ties by task id). One
    counting-sort pass, O(n + m), plus a sort of each bucket whose
    starts are out of order. *)

val of_assignment : m:int -> durations:float array -> int array -> t
(** Build the schedule that runs each task on its assigned machine
    back-to-back in task-id order — the canonical schedule of a static
    (phase-1-only) assignment. *)

type violation =
  | Overlap of { machine : int; task_a : int; task_b : int }
  | Wrong_duration of { task : int; expected : float; got : float }
  | Not_allowed of { task : int; machine : int }

val validate :
  ?placement:Usched_model.Holders.t ->
  ?speeds:float array ->
  Instance.t ->
  Realization.t ->
  t ->
  violation list
(** All structural violations of the schedule w.r.t. the realization and
    (optionally) a placement: task durations must equal actual times
    (divided by the executing machine's speed when [speeds] is given),
    tasks on one machine must not overlap, and each task must run on a
    machine holding its data. Empty list = valid. *)
