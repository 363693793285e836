(** Figure 6: the memory-makespan guarantee tradeoff.

    Sweeps Δ and draws, in the (memory guarantee, makespan guarantee)
    plane, the parametric curves of SABO_Δ and ABO_Δ together with the
    impossibility hyperbola, for the paper's three configurations:
    (m=5, α²=2, ρ=4/3), (m=5, α²=3, ρ=1), (m=5, α²=3, ρ=4/3).
    Also reports the crossover: for [α·ρ1 >= 2] ABO dominates on
    makespan, while SABO always dominates on memory. *)

val run : Runner.config -> unit
