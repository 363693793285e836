(** Scenario-based robust selection (related-work bridge).

    The robust-scheduling literature the paper builds on (Daniels &
    Kouvelis; Canon & Jeannot) structures uncertainty as a finite set of
    {e scenarios}. This module provides that complementary machinery on
    top of the two-phase framework: sample a scenario set once, evaluate
    any algorithm's committed placement against every scenario, and pick
    from a portfolio of algorithms the one with the best worst-case (or
    best average) makespan over the set.

    This is decision support, not a new guarantee: the paper's theorems
    bound all realizations; scenario selection tunes the knobs (k, Δ,
    replication counts) for the realizations one actually expects. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization

type t = Realization.t list
(** A non-empty scenario set over one instance. *)

val sample :
  count:int ->
  realize:(Instance.t -> Usched_prng.Rng.t -> Realization.t) ->
  rng:Usched_prng.Rng.t ->
  Instance.t ->
  t
(** [count] independent scenario draws. Raises [Invalid_argument] if
    [count < 1]. *)

type evaluation = {
  algorithm : Two_phase.t;
  worst : float;  (** Worst makespan over the set. *)
  mean : float;
  per_scenario : float array;
}

type criterion = Minimize_worst | Minimize_mean

val select :
  ?domains:int ->
  criterion ->
  portfolio:Two_phase.t list ->
  Instance.t ->
  t ->
  evaluation
(** Evaluate every portfolio member — commit its phase 1 once, replay
    phase 2 on every scenario — and return the best under the criterion
    (ties broken by portfolio order). [domains] (default 1) shards the
    scenario replays over that many domains; the evaluation is
    bit-identical at any domain count (each scenario's makespan is an
    independent pure replay). Raises [Invalid_argument] on an empty
    portfolio or empty scenario set. *)
