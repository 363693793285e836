(** The MULTIFIT algorithm (Coffman, Garey & Johnson 1978).

    A strong offline baseline: binary-search the machine capacity and test
    feasibility with first-fit-decreasing bin packing. With [k] iterations
    the makespan is within [13/11 + 2^-k] of optimal. The paper cites the
    existence of arbitrarily good offline algorithms (dual approximation);
    MULTIFIT plays that role in our measured baselines. *)

val schedule : ?iterations:int -> m:int -> float array -> Assign.result
(** Assignment produced by MULTIFIT with [iterations] (default 20) binary
    search steps; falls back to LPT's assignment if FFD never fits (FFD
    feasibility is not monotone-complete, so this guards pathological
    cases). Raises [Invalid_argument] if [m < 1] or a time is negative. *)

val makespan : m:int -> float array -> float
(** Makespan of {!schedule} at its default 20 iterations. *)
