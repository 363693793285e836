(** The two-phase algorithm framework of the paper.

    Phase 1 (offline) sees only estimates and produces a {!Placement.t};
    phase 2 (online, semi-clairvoyant) executes against the realized
    actual times, restricted to the placement. The framework enforces the
    information flow: phase 1 never sees a {!Realization.t}. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule

type t = {
  name : string;
  phase1 : Instance.t -> Placement.t;
  phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t;
}

val run : t -> Instance.t -> Realization.t -> Schedule.t
(** Both phases in sequence. *)

val run_full : t -> Instance.t -> Realization.t -> Placement.t * Schedule.t
(** Like {!run}, also exposing the placement (for memory accounting and
    adversaries). *)

val makespan : t -> Instance.t -> Realization.t -> float

val engine_phase2 :
  ?dispatch:Usched_desim.Dispatch.spec ->
  order:(Instance.t -> int array) ->
  Instance.t ->
  Placement.t ->
  Realization.t ->
  Schedule.t
(** A phase 2 that feeds the desim engine with the given task priority
    order — the building block of every algorithm in the paper.
    [dispatch] (default [Dispatch.List_priority]) selects the engine's
    idle-machine rule; phase 1 stays oblivious to it, preserving the
    framework's information flow. *)

val lpt_order_phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t
(** {!engine_phase2} with the estimate-descending (LPT) order. *)

val submission_order_phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t
(** {!engine_phase2} with the task-id (submission / list scheduling)
    order. *)
