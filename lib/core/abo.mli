(** The ABO_Δ algorithm (asymmetric bi-objective, Section 6.2).

    Phase 1 applies the {!Sbo} split: memory-intensive tasks ([S2]) are
    pinned to their [π2] machine, while processing-time-intensive tasks
    ([S1]) are replicated on {e every} machine. Phase 2 loads the [S2]
    tasks first, then dispatches the replicated [S1] tasks with Graham's
    online List Scheduling as machines drain their pinned work.
    Guarantees (Theorems 7-8): [2 - 1/m + Δ·α²·ρ1] on makespan and
    [(1 + m/Δ)·ρ2] on memory. *)

module Instance = Usched_model.Instance

val placement : delta:float -> Instance.t -> Placement.t
(** Its phase-1 placement: singleton sets for [S2], full sets for [S1]. *)

val phase2_order : Sbo.split -> int array
(** The phase-2 priority order: all [S2] tasks (in id order), then all
    [S1] tasks (in id order, Graham's list). *)
