(** Uniform (related) machines: heterogeneity as an extension.

    The paper studies identical machines; real clusters (its MapReduce
    motivation) mix fast and slow nodes, and machine heterogeneity is one
    of the reasons estimates miss. This extension gives every machine a
    speed [s_i] — a task with processing requirement [p] occupies machine
    [i] for [p / s_i] — and ports the paper's two-phase pipeline:

    - phase 1: earliest-completion-time LPT on the estimates (the
      uniform-machines analogue of Graham's LPT);
    - phase 2: the desim engine with speeds — an idle machine grabs the
      highest-priority eligible task, so faster machines naturally serve
      more work.

    No competitive-ratio theorems are claimed here (the paper's proofs
    are for identical machines); the [hetero] experiment measures the
    ratios empirically against {!lower_bound}. *)

module Instance = Usched_model.Instance

val lower_bound : speeds:float array -> float array -> float
(** Sound lower bound on the optimal uniform-machines makespan:
    max over [k] of (sum of the [k] largest tasks) / (sum of the [k]
    largest speeds), with [k] up to [m], and total work over total
    speed; for [k = 1] the largest task on the fastest machine. Only
    the [min m n] largest times are selected, never a full sort: O(n log
    m) time at worst and O(m) words, and the value is bit-for-bit the
    one a full descending sort gives. Raises [Invalid_argument] on bad
    [speeds] (not exactly [m] strictly positive finite speeds) or on a
    task time that is negative or not finite (NaN, infinity). *)

val lower_bound_of : float array -> speeds:float array -> float
(** [lower_bound_of p ~speeds = lower_bound ~speeds p], bit for bit, for
    callers that bound the same task times at many speed vectors: the
    partial application [lower_bound_of p] validates and sorts [p] once
    (O(n log n)), after which each call costs O(m log m) and no per-task
    work. Raises as {!lower_bound}, on [p] at partial application and on
    [speeds] at each call. *)

val lpt_placement : speeds:float array -> Instance.t -> Placement.t
(** Strategy 1 on uniform machines: ECT-LPT (tasks in decreasing
    estimate order, each to the machine that would finish it earliest),
    every task pinned to its machine. *)

val full_placement : speeds:float array -> Instance.t -> Placement.t
(** Strategy 2 on uniform machines: every task on every machine. *)

val group_placement : speeds:float array -> k:int -> Instance.t -> Placement.t
(** Strategy 3 on uniform machines: contiguous machine groups, each task
    greedily to the group where its estimated finish (group load over
    group speed) stays smallest, replicated on the whole group. *)
