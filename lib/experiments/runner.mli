(** Shared machinery for the experiment harness.

    Ratio measurement with a sound optimum estimate (exact branch and
    bound below a size threshold, lower bounds above), randomized sweeps
    over workloads and realization models, and worst-case searches that
    combine all adversaries. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Core = Usched_core

type config = {
  seed : int;  (** Master seed; every sub-experiment derives from it. *)
  reps : int;  (** Repetitions per sampled point. *)
  domains : int;  (** Domains for parallel sweeps. *)
  exact_n : int;  (** Use exact B&B optimum up to this many tasks. *)
  csv_dir : string option;
      (** When set, experiments also dump their raw series as CSV files
          into this directory (created recursively if missing), each
          accompanied by a [<id>.manifest.json] run manifest. *)
  metrics : Usched_obs.Metrics.t;
      (** Per-run instrument registry: sweeps and adversary searches
          record phase timings ([phase.sweep], [phase.adversary]), CSV
          output records [runner.csv_write]/[runner.csv_files]. The
          registry lands in the run manifest. Single-domain — never
          updated from inside parallel workers. *)
  algo_specs : string list ref;
      (** Strategy spec strings the experiment built via {!strategy}, in
          first-use order and deduplicated. Recorded in the run manifest
          ([algo_specs]) so every run is replayable by name. *)
}

val default_config : config
(** [seed = 42], [reps = 50], one domain per core (capped, overridable
    via [USCHED_DOMAINS]), exact optimum up to 16 tasks, no CSV output, a
    fresh live metrics registry. *)

val fresh_metrics : config -> config
(** Same config with a new empty metrics registry and spec record — used
    by the experiment registry so each manifest reports its own timings
    and algorithms. *)

val strategy : config -> m:int -> Core.Strategy.t -> Core.Two_phase.t
(** [Strategy.build spec ~m], with the spec string recorded for the run
    manifest. Experiments construct every algorithm through this (or
    {!record_spec} + [Strategy.build] when they build for several [m]). *)

val record_spec : config -> Core.Strategy.t -> unit
(** Record a spec in [config.algo_specs] without building it (dedup,
    first-use order). *)

val maybe_csv :
  config -> name:string -> header:string list -> string list list -> unit
(** Write [<csv_dir>/<name>.csv] when [csv_dir] is set; otherwise do
    nothing. Creates the directory (and any missing ancestors) on first
    use. *)

val maybe_manifest :
  config -> id:string -> title:string -> wall_time_s:float -> unit
(** Write [<csv_dir>/<id>.manifest.json] when [csv_dir] is set: seed,
    reps, domains, exact_n, wall time, the strategy spec strings the run
    built ([algo_specs]), and the metrics snapshot (phase timings, CSV
    accounting) as one JSON object. *)

val quick : config -> config
(** Same config with [reps] reduced for smoke tests. *)

val opt_estimate : config -> m:int -> float array -> float * bool
(** A lower bound on (or exact value of) the optimal makespan of the
    realized times, and whether it is exact. Measured ratios divide by
    this, so they upper-bound the true competitive ratio. *)

(** {1 Paired repetitions}

    Sweeps compare cells (strategies, policies, degrees) on the same
    random draws: repetition [r] of every cell replays one workload,
    realization and fault trace. *)

val paired_reps :
  config -> salt:int -> reps:int -> (Usched_prng.Rng.t -> unit) -> unit
(** [paired_reps config ~salt ~reps f] calls [f] once per repetition,
    in order, each time with a fresh generator split off one master
    seeded [config.seed + salt]. Every cell of a repetition draws from
    that one generator, so cells are paired; a sweep section picks its
    own [salt] so sections draw independently. *)

val generate :
  ?spec:Usched_model.Workload.spec ->
  n:int ->
  m:int ->
  alpha:float ->
  Usched_prng.Rng.t ->
  Instance.t * Realization.t
(** The replay sweeps' workload: [spec] (default uniform on [[1, 10]])
    estimates within [alpha], then log-uniform actuals
    ({!Realization.log_uniform_factor}), both from [rng] in that
    order. *)

val ring_placement : m:int -> n:int -> k:int -> Core.Placement.t
(** Task [j] on machines [j mod m .. (j+k-1) mod m]. The rings are
    nested in [k]: under one crash trace a task stranded at [k+1]
    replicas is also stranded at [k]. *)

type sweep_result = {
  summary : Usched_stats.Summary.t;  (** Distribution of measured ratios. *)
  worst : float;  (** Largest ratio seen. *)
  exact_opt : bool;  (** Whether every optimum was exact. *)
}

val random_sweep :
  config ->
  algo:Core.Two_phase.t ->
  spec:Usched_model.Workload.spec ->
  realize:(Instance.t -> Usched_prng.Rng.t -> Realization.t) ->
  n:int ->
  m:int ->
  alpha:float ->
  sweep_result
(** [reps] independent (instance, realization) draws, ratios summarized.
    Runs on [config.domains] domains. *)

val adversarial_ratio :
  config -> Core.Two_phase.t -> Instance.t -> float
(** Worst ratio over the implemented adversaries (Theorem-1 inflation,
    per-machine inflation, greedy flips; exhaustive when [n] is small
    enough). The phase-1 placement is computed once; every adversary then
    chooses a realization against it, as in the paper's model. *)

(** {1 Reporting}

    Each column is declared once and feeds both the printed table and
    the CSV. The number convention: a float prints through
    [Table.cell_float] in the table and as [%.6f] in the CSV; a fraction
    prints as [%.1f%%] of [100 x] in the table and as the fraction in
    the CSV; a statistic of an empty [Summary] prints ["-"] in the table
    and ["nan"] in the CSV. *)

type 'r column
(** One table column over rows of type ['r], with zero or more CSV
    fields. *)

val column :
  ?align:Usched_report.Table.align ->
  ?csv:(string * ('r -> string)) list ->
  string ->
  ('r -> string) ->
  'r column
(** [column title cell] (right-aligned by default) with the given CSV
    fields, [(name, formatter)] each, in order (none by default). *)

val text :
  ?align:Usched_report.Table.align ->
  ?csv:string ->
  string ->
  ('r -> string) ->
  'r column
(** A label (left-aligned by default), written verbatim to the CSV field
    [csv] when given. *)

val float : ?csv:string -> string -> ('r -> float) -> 'r column
(** [Table.cell_float] in the table, [%.6f] in the CSV. *)

val percent : ?csv:string -> string -> ('r -> float) -> 'r column
(** A fraction [x]: [%.1f%%] of [100 x] in the table, [x] as [%.6f] in
    the CSV. *)

val mean_or_dash :
  ?stat:(Usched_stats.Summary.t -> float) ->
  ?csv:string ->
  string ->
  ('r -> Usched_stats.Summary.t) ->
  'r column
(** [stat] (default the mean) of a summary formatted as by {!float}, or
    ["-"] / ["nan"] when the summary is empty. *)

val csv_float : float -> string
(** [%.6f], the CSV float format, for {!column} fields. *)

val report : config -> ?csv:string -> 'r column list -> 'r list -> unit
(** Print the table of [rows], then write them to [<csv>.csv] through
    {!maybe_csv} when [csv] is given: the header is every column's CSV
    field names in order, each row their formatted values. *)

(** {1 Fault-replay cells}

    What a faulty replay costs a cell, accumulated over repetitions. *)

type fault_cell = {
  mutable runs : int;
  mutable full_runs : int;  (** Runs with no stranded task. *)
  completion : Usched_stats.Summary.t;  (** Completed fraction per run. *)
  degradation : Usched_stats.Summary.t;
      (** Faulty over healthy makespan, full runs only. *)
  wasted : Usched_stats.Summary.t;  (** Wasted work over total work. *)
}

val fault_cell : unit -> fault_cell

val record_fault :
  fault_cell ->
  healthy:float ->
  total_work:float ->
  Usched_desim.Engine.outcome ->
  unit
(** Add one faulty replay, against the healthy makespan and the
    realization's total work. *)

val full_runs : ('r -> fault_cell) -> 'r column
(** ["full runs"] as [full/runs]; CSV [full_runs], [runs]. *)

val stranded_runs : ('r -> fault_cell) -> 'r column
(** ["stranded runs"] as [stranded/runs]; CSV [stranded_runs], [runs]. *)

val tasks_done : ('r -> fault_cell) -> 'r column
(** ["tasks done"], mean completion; CSV [task_completion]. *)

val mean_degr : ('r -> fault_cell) -> 'r column
(** ["mean degr"], mean degradation or dash; CSV [mean_degradation]. *)

val wasted : ('r -> fault_cell) -> 'r column
(** ["wasted"], mean wasted fraction; CSV [wasted_fraction]. *)

val print_section : string -> unit
(** Banner printed before each experiment block. *)
