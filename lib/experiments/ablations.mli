(** Ablation studies beyond the paper's figures.

    Three design questions the paper raises in passing, answered
    empirically:
    - does an LPT order in LS-Group's phases help (§5.3 closing remark)?
    - how strong are the different adversaries against LPT-No Choice?
    - how much replication does the selective (future-work) strategy
      need before it matches full replication? *)

val phase2_order : Runner.config -> unit
(** LS-Group vs LPT-Group measured ratios across workloads. *)

val adversary_strength : Runner.config -> unit
(** Theorem-1 vs greedy-flip vs exhaustive adversaries on one instance
    family. *)

val selective_replication : Runner.config -> unit
(** Measured ratio as the number of replicated "critical" tasks grows
    from 0 (LPT-No Choice) to n (LPT-No Restriction). *)

val correlated_errors : Runner.config -> unit
(** How the error structure changes the picture: iid log-uniform noise
    vs clustered (correlated) noise vs pure systematic bias, for each
    strategy. Bias provably leaves ratios untouched; correlation moves
    the iid case toward that harmless limit, so independent errors are
    where replication pays most. *)
