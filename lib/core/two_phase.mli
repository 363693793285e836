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

val lpt_order_phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t
(** A phase 2 that feeds the desim engine with the estimate-descending
    (LPT) task priority order. *)

val submission_order_phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t
(** The same with the task-id (submission / list scheduling) order. *)
