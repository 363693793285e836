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

val replay :
  ?speeds:float array ->
  (Instance.t -> int array) ->
  Instance.t ->
  Placement.t ->
  Realization.t ->
  Schedule.t
(** [replay order] is the phase 2 every catalog family runs: the desim
    engine list-schedules the tasks in the priority order [order
    instance] (estimate-descending LPT, submission order, ABO's S2 then
    S1), each only on a machine of its placement set, with the machine
    [speeds] of the related-machines families (default all 1.0). *)
