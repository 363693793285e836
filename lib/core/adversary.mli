(** Adversaries: worst-case realizations chosen after phase 1.

    The paper's lower bound (Theorem 1) is proved with an adversary that
    inspects the placement and then inflates the tasks of an overloaded
    machine by [α] while deflating everything else by [1/α]. This module
    makes that adversary — and stronger search-based ones — executable, so
    lower-bound constructions and worst-case ratio measurements run as
    experiments. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule

val theorem1 : Instance.t -> Placement.t -> Realization.t
(** The Theorem-1 adversary, generalized to arbitrary placements: find the
    machine with the largest estimated load of {e pinned} tasks (tasks
    with [|M_j| = 1]); inflate those tasks to [α·p̃], deflate every other
    task to [p̃/α]. On a replication-free placement of identical tasks it
    is exactly the proof's construction. *)

val inflate_machine : int -> Instance.t -> Placement.t -> Realization.t
(** Inflate every task placed (possibly among others) on the given
    machine; deflate the rest. *)

val greedy_flip :
  run:(Realization.t -> Schedule.t) ->
  opt:(float array -> float) ->
  Instance.t ->
  Realization.t
(** Local search over extreme realizations: starting from all-deflated,
    repeatedly flip single task factors between [1/α] and [α], keeping a
    flip when it increases [C_max / opt(actuals)]. [run] re-executes the
    algorithm's phase 2 against a candidate realization; [opt] evaluates
    (or bounds) the clairvoyant optimum. Three full passes.

    Only extreme factors are explored; by the convexity of the makespan
    in each single task's time this loses nothing against static
    policies, and is a strong heuristic against online ones. *)

val exhaustive :
  run:(Realization.t -> Schedule.t) ->
  opt:(float array -> float) ->
  Instance.t ->
  Realization.t * float
(** Enumerate all [2^n] extreme realizations and return the worst one with
    its ratio. Raises [Invalid_argument] for [n > 20]. *)

val ratio :
  run:(Realization.t -> Schedule.t) ->
  opt:(float array -> float) ->
  Realization.t ->
  float
(** [C_max(run r) / opt(actuals r)] — the quantity adversaries maximize. *)
