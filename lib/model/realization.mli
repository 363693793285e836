(** Realizations: the actual processing times of an instance's tasks.

    A realization is what the adversary — or nature — picks inside the
    admissible intervals after phase 1 commits to a placement. The online
    phase-2 scheduler only learns [actual t j] when task [j] completes. *)

type t
(** Actual processing times, indexed by task id. *)

val of_actuals : Instance.t -> float array -> t
(** Wraps explicit actual times. Raises [Invalid_argument] if the length
    differs from the instance or any value violates Equation 1. *)

val of_factors : Instance.t -> float array -> t
(** [of_factors inst f] sets [actual j = f.(j) * est j]. Each factor must
    lie in [[1/α, α]]. *)

val exact : Instance.t -> t
(** Actual = estimate for every task (no perturbation). *)

val actual : t -> int -> float
val actuals : t -> float array
(** All actual times, indexed by task id: the realization's own column,
    not a copy. It is read-only: a caller that needs to write into it
    copies it first. *)

val total : t -> float

(** {1 Random realization models}

    Oblivious stochastic adversaries: they draw actual times independently
    of the placement. The paper's worst cases are placement-aware; those
    live in [Usched_core.Adversary]. *)

val uniform_factor : Instance.t -> Usched_prng.Rng.t -> t
(** Each factor drawn uniformly from [[1/α, α]]. *)

val log_uniform_factor : Instance.t -> Usched_prng.Rng.t -> t
(** Each factor drawn log-uniformly from [[1/α, α]] (symmetric in the
    multiplicative sense: under- and over-estimation equally likely). *)

val extremes : p_high:float -> Instance.t -> Usched_prng.Rng.t -> t
(** Each task is inflated to [α·p̃] with probability [p_high], deflated to
    [p̃/α] otherwise — the two-point distribution used in all the paper's
    proofs. *)

val biased : factor:float -> Instance.t -> t
(** Systematic estimation bias: every task's actual time is
    [factor · p̃]. Raises [Invalid_argument] if [factor] lies outside
    [[1/α, α]]. Makespans simply rescale under this model, so
    competitive ratios are invariant — a useful engine property. *)

val clustered : clusters:int -> Instance.t -> Usched_prng.Rng.t -> t
(** Correlated errors: tasks are binned into [clusters] groups by id and
    every group shares one log-uniform factor — e.g. all tasks of one
    job class being mis-modelled the same way. [clusters >= 1]. *)
