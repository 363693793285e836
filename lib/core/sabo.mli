(** The SABO_Δ algorithm (static asymmetric bi-objective, Section 6.1).

    Phase 1 applies the {!Sbo} split and pins every task to the machine
    its side of the split dictates — no replication. Phase 2 executes the
    static assignment. Guarantees (Theorems 5-6):
    [(1+Δ)·α²·ρ1] on makespan and [(1+1/Δ)·ρ2] on memory. *)

module Instance = Usched_model.Instance

val placement : delta:float -> Instance.t -> Placement.t
(** The phase-1 placement: every task pinned to its SBO_Δ machine. *)
