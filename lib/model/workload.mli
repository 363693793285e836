(** Synthetic workload generators.

    The paper motivates the model with out-of-core sparse linear algebra
    and Hadoop/MapReduce workloads; these generators produce the estimate
    and size mixes characteristic of those settings, plus the structured
    instances used in the paper's proofs (equal tasks, LPT worst cases).

    A {!spec} describes the distribution of estimated processing times; a
    {!size_spec} describes the memory sizes relative to the estimates.
    Generation is deterministic given the {!Usched_prng.Rng.t}. *)

type spec =
  | Identical of float  (** Every task has this estimate (Theorem 1's instance). *)
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { shape : float; scale : float; cap : float }
      (** Heavy-tailed, truncated at [cap] to keep instances finite. *)
  | Bimodal of { p_long : float; short_mean : float; long_mean : float }
      (** Exponential short tasks with a fraction of long stragglers. *)
  | Lpt_adversarial of { m : int }
      (** The classical instance on which LPT attains 4/3 - 1/(3m):
          tasks 2m-1..m+1 duplicated plus m tasks of length m
          (scaled to floats). The [n] argument of {!generate} is ignored
          in favour of the canonical 2m+1 tasks. *)
  | Sand of { total : float }
      (** [n] identical grains of [total / n] each — infinitely divisible
          load in the limit. The easiest speed-robust class of Eberle et
          al.: any placement can rebalance grain by grain. *)
  | Bricks of { size : float }
      (** [n] identical unit bricks — equal jobs, where the granularity
          (not the mix) limits rebalancing under revealed speeds. *)
  | Rocks of { lo : float; hi : float }
      (** Uniform heterogeneous rocks — arbitrary job sizes, the hardest
          speed-robust class: one big rock stuck on a slow machine
          dominates the makespan. *)

type size_spec =
  | Unit_sizes  (** Every task has size 1. *)
  | Proportional of float  (** [size = c * est]: big tasks have big data. *)
  | Inverse of float
      (** [size = c / est]: small tasks have big data — the adversarial mix
          for memory-aware scheduling. *)
  | Uniform_sizes of { lo : float; hi : float }  (** Independent of estimates. *)

val generate :
  spec ->
  ?size_spec:size_spec ->
  n:int ->
  m:int ->
  alpha:Uncertainty.alpha ->
  Usched_prng.Rng.t ->
  Instance.t
(** Build an instance of [n] tasks on [m] machines. Raises
    [Invalid_argument] on nonsensical parameters ([n < 0], bad
    distribution parameters). *)

val of_spec : string -> (spec, string) result
(** The CLI grammar behind [usched gen --workload]: [identical:V],
    [uniform:LO:HI], [exponential:MEAN], [pareto:SHAPE:SCALE:CAP] or
    [bimodal:P:SHORT:LONG]. Every value must be finite and [> 0],
    except [P] in [[0, 1]], with [LO <= HI] and [SCALE <= CAP]. Numbers
    follow {!Spec_text}; errors name the field and end with the
    grammar. *)

val spec_name : spec -> string

val standard_suite : m:int -> (string * spec) list
(** The named workload families exercised by the experiment harness. *)

val speed_robust_suite : m:int -> (string * spec) list
(** The sand / bricks / rocks instance classes of the speed-robust
    model (Eberle et al.), sized to keep [m] machines busy — what the
    [speed-robust] experiment crosses with the strategy catalog. *)
