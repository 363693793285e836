(** The speed-robust experiment ([speed-robust]): sand, bricks and rocks
    workloads under banded machine speeds, fixed-degree vs speed-robust
    replication, adversarial and Monte-Carlo revelations (paired — the
    sampled draws are folded into the adversary's candidate set, so the
    adversarial ratio dominates every sampled one by construction), and a
    mid-run revelation replayed through the fault layer. *)

val run : Runner.config -> unit

type assessment = {
  adv_speeds : float array;  (** The adversary's worst revelation. *)
  ratio_adv : float;  (** Makespan over the lower bound at [adv_speeds]. *)
  mc_ratios : float array;  (** The same ratio at each draw, in order. *)
  reveal_at : float;  (** Half the lower bound at the optimistic speeds. *)
  makespan_reveal : float;
      (** Makespan when every machine starts at its optimistic speed and
          is slowed to [adv_speeds] at [reveal_at] through the fault
          layer. *)
}

val adversarial_ratio :
  dispatch:Usched_desim.Dispatch.spec ->
  domains:int ->
  draws:float array array ->
  Usched_model.Instance.t ->
  Usched_model.Realization.t ->
  Usched_core.Placement.t ->
  Usched_model.Speed_band.t ->
  float array * float * float array
(** The worst-case speed adversary against a committed placement: every
    revelation is scored by its makespan, replayed in LPT order under
    [dispatch], over {!Usched_core.Uniform.lower_bound} at the revealed
    speeds. The corner search runs over [domains] and is pruned by
    {!Usched_core.Speed_adversary.makespan_bound}; each Monte-Carlo
    [draws] entry is replayed once and folded in after it, so the worst
    ratio dominates every sampled one. Returns the worst speeds, their
    ratio, and the ratio at each draw, in order. Raises
    [Invalid_argument] when a draw leaves the band. *)

val assess :
  ?dispatch:Usched_desim.Dispatch.spec ->
  ?speculation:float ->
  ?recovery:Usched_faults.Recovery.t ->
  ?domains:int ->
  draws:float array array ->
  Usched_model.Instance.t ->
  Usched_model.Realization.t ->
  Usched_core.Placement.t ->
  Usched_model.Speed_band.t ->
  assessment
(** Speed robustness of a committed placement over [band], replaying in
    LPT order under [dispatch]: the worst-case speed adversary with the
    Monte-Carlo [draws] folded into its candidates (so [ratio_adv]
    dominates every entry of [mc_ratios]), the ratio at each draw, and
    the adversary's revelation replayed mid-run with [speculation] and
    [recovery]. The corner search is pruned by
    {!Usched_core.Speed_adversary.makespan_bound}, and every draw is
    replayed once. [domains] parallelizes the corner search. The engine
    defaults apply to omitted options; [solve] passes its flags, the
    experiment passes none. Raises [Invalid_argument] when a draw
    leaves the band. *)
