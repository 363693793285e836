(** Stream experiment: the open-system service mode swept over offered
    load. Poisson arrivals feed each placement strategy at rho in
    {0.6, 0.85, 1.1}; reports per-task latency quantiles (p50/p95/p99),
    machine utilization, and a latency-drift instability verdict that
    locates each strategy's stability frontier (every cell at rho = 1.1
    is past it). Arrivals, workloads and realizations are paired across
    strategies within a load point. *)

val run : Runner.config -> unit

val utilization :
  m:int -> Usched_model.Realization.t -> Usched_desim.Engine.outcome -> float
(** Machine-time consumed (wasted work plus the actual times of the
    finished tasks) over the [m] machines' time until the drain
    ([outcome.makespan]); 0.0 when nothing ran. *)
