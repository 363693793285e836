(** Dual approximation scheme for makespan (Hochbaum & Shmoys 1987).

    The paper cites the existence of an "arbitrarily good approximation
    algorithm ... with a dual approximation algorithm" for the offline
    problem; this module implements it. For any [epsilon > 0] it returns
    a schedule within [(1+epsilon)] of the optimal makespan:

    - binary-search a target makespan [t];
    - jobs larger than [epsilon*t] ("big") are rounded down to multiples
      of [epsilon^2*t], leaving at most [~1/epsilon^2] distinct sizes and
      at most [1/epsilon] big jobs per machine; the rounded big jobs are
      packed exactly into bins of capacity [t] by a memoized
      bin-completion search over size-class configurations;
    - small jobs are added greedily to any machine below [t].

    If the procedure fails at target [t], then [OPT > t] (a {e dual}
    certificate); if it succeeds, every load is at most [(1+epsilon)*t].
    The search therefore converges to a schedule of makespan at most
    [(1+epsilon)*OPT] (up to binary-search precision).

    Complexity is polynomial for fixed [epsilon] but grows steeply as
    [epsilon] shrinks; intended for [epsilon >= 0.2] and a few hundred
    jobs, where it beats MULTIFIT's 13/11 guarantee. *)

val makespan : ?epsilon:float -> m:int -> float array -> float
(** [makespan ~epsilon ~m p] runs the full scheme (default
    [epsilon = 1/3], 40 binary-search steps) and returns the makespan of
    the best schedule it found — at most [(1+epsilon)·OPT]. Raises
    [Invalid_argument] if [m < 1], a time is negative, or [epsilon] is
    outside (0, 1]. *)

val feasible_at : epsilon:float -> t:float -> m:int -> float array -> Assign.result option
(** One dual test at target [t]: [Some assignment] with every load at
    most [(1+epsilon)·t], or [None] certifying [OPT > t]. Exposed for
    tests and for callers that already know a target. *)
