(** Closed-form guarantees of the paper, as executable formulas.

    Each function evaluates one theorem's competitive/approximation ratio.
    These drive the regeneration of Table 1, Table 2, Figure 3 and
    Figure 6, and the test suite checks every measured schedule against
    them.

    All [alpha] arguments are plain floats [>= 1]; all functions raise
    [Invalid_argument] on out-of-domain parameters. *)

(** {1 The replication bound model (Sections 4-5)} *)

val no_replication_lower_bound : m:int -> alpha:float -> float
(** Theorem 1: no online algorithm with [|M_j| = 1] beats
    [α²m / (α² + m - 1)]. *)

val no_replication_lower_bound_limit : alpha:float -> float
(** Corollary 1: the [m → ∞] limit, [α²]. *)

val lpt_no_choice : m:int -> alpha:float -> float
(** Theorem 2: LPT-No Choice is [2α²m / (2α² + m - 1)]-competitive. *)

val lpt_no_restriction : m:int -> alpha:float -> float
(** Theorem 3: LPT-No Restriction is
    [1 + ((m-1)/m)·α²/2]-competitive. *)

val list_scheduling : m:int -> float
(** Graham's bound [2 - 1/m] (valid regardless of estimates, since list
    scheduling never idles a machine with eligible work). *)

val full_replication : m:int -> alpha:float -> float
(** Best of {!lpt_no_restriction} and {!list_scheduling}, as discussed
    after Theorem 3: [min(1 + (m-1)/m·α²/2, 2 - 1/m)]. *)

val ls_group : m:int -> k:int -> alpha:float -> float
(** Theorem 4: LS-Group with [k] groups is
    [kα²/(α²+k-1) · (1 + (k-1)/m) + (m-k)/m]-competitive. Requires
    [1 <= k <= m]. *)

(** {1 Classical offline baselines (Section 2 of Related Work)} *)

val lpt_offline : m:int -> float
(** Graham 1969: [4/3 - 1/(3m)] for LPT with exact processing times. *)

(** {1 The memory-aware model (Section 6)} *)

val sabo_makespan : alpha:float -> delta:float -> rho1:float -> float
(** Theorem 5: SABO_Δ is [(1+Δ)·α²·ρ1]-approximate on makespan. *)

val sabo_memory : delta:float -> rho2:float -> float
(** Theorem 6: SABO_Δ is [(1+1/Δ)·ρ2]-approximate on memory. *)

val abo_makespan : m:int -> alpha:float -> delta:float -> rho1:float -> float
(** Theorem 7: ABO_Δ is [(2 - 1/m + Δ·α²·ρ1)]-approximate on makespan. *)

val abo_memory : m:int -> delta:float -> rho2:float -> float
(** Theorem 8: ABO_Δ is [(1 + m/Δ)·ρ2]-approximate on memory. *)

val tradeoff_impossibility : makespan_ratio:float -> float
(** The bold impossibility line of Figure 6: an algorithm that combines a
    makespan-optimal and a memory-optimal schedule and guarantees a
    makespan ratio [x > 1] cannot guarantee a memory ratio below
    [1 + 1/(x - 1)] (the tightness hyperbola of SBO_Δ, discussed in the
    paper via its reference [IPDPS 2008]). Requires [x > 1]. *)

val abo_beats_sabo_on_makespan : alpha:float -> rho1:float -> bool
(** The paper's selection rule: for [α·ρ1 >= 2], ABO_Δ always has the
    better makespan guarantee. *)
