module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Failure = Usched_model.Failure
module Schedule = Usched_desim.Schedule
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Bootstrap = Usched_stats.Bootstrap
module Metrics = Usched_obs.Metrics

let m = 8
let n = 40
let alpha = 1.5
let crash_draws_per_rep = 40

type survival = { point : float; lo : float; hi : float; trials : int }

(* A crash draw strands task [j] iff every machine in its replica set
   crashed; an empty set counts as stranded (no data survives anywhere),
   matching [Failure.prob_all_lost] on the empty set. *)
let survives sets crashed =
  not (Array.exists (fun s -> Bitset.subset s crashed) sets)

(* A crash strands some task iff it strands some distinct set. *)
let distinct_sets placement =
  Usched_model.Set_table.to_array
    (Core.Placement.sets placement).Usched_model.Holders.table

let crashed_set ~m faults =
  let set = Bitset.create m in
  List.iter (fun i -> Bitset.add set i) (Trace.crashed faults);
  set

let monte_carlo_survival ?(trials = 1000) ?(domains = 1) ~seed ~profile
    placement =
  if trials < 1 then invalid_arg "monte_carlo_survival: trials must be >= 1";
  let sets = distinct_sets placement in
  let mm = Failure.m profile in
  let rng = Rng.create ~seed () in
  (* Trial generators are split off sequentially before the fan-out, so
     trial [t] sees the same stream — and the bootstrap below continues
     from the same master state — at any domain count: N-domain and
     1-domain runs are bit-identical. *)
  let trial_rngs = Array.init trials (fun _ -> Rng.split rng) in
  let data =
    Usched_parallel.Pool.parallel_init ~domains trials (fun t ->
        let faults =
          Trace.profile_crashes trial_rngs.(t) ~profile ~horizon:1.0
        in
        if survives sets (crashed_set ~m:mm faults) then 1.0 else 0.0)
  in
  let iv = Bootstrap.mean_interval ~rng data in
  { point = iv.Bootstrap.point; lo = iv.Bootstrap.lo; hi = iv.Bootstrap.hi;
    trials }

(* ------------------------- the experiment --------------------------- *)

let profiles =
  [
    ("uniform p=0.05", fun _rng -> Failure.uniform ~m ~p:0.05);
    ( "tiered 0.01/0.20",
      fun _rng ->
        Failure.make (Array.init m (fun i -> if i < m / 2 then 0.01 else 0.20))
    );
    ( "random [0.01,0.30]",
      fun rng ->
        Failure.make
          (Array.init m (fun _ -> Rng.float_range rng ~lo:0.01 ~hi:0.30)) );
  ]

let strategy_specs =
  Strategy.
    [
      ("LPT-No Choice", No_replication Lpt);
      ("Budgeted k=2", Budgeted 2);
      ("Reliability 0.9", Reliability { target = 0.9; budget = None });
      ("Reliability 0.99", Reliability { target = 0.99; budget = None });
      ("Reliability 0.999", Reliability { target = 0.999; budget = None });
      ("Reliability 0.99 B=18", Reliability { target = 0.99; budget = Some 18.0 });
      ("LPT-No Restriction", Full_replication Lpt);
    ]

let is_reliability = function Strategy.Reliability _ -> true | _ -> false

type row = {
  name : string;
  spec : Strategy.t;
  algo : Core.Two_phase.t;
  ratio : Summary.t;
  mem : Summary.t;
  bound : Summary.t;
  indicators : float list ref;
  infeasible : int ref;
}

(* A row's table/CSV view: [survival] is [None] when every repetition
   was infeasible. *)
type line = {
  pname : string;
  row : row;
  survival : Bootstrap.interval option;
}

let f4 = Printf.sprintf "%.4f"

(* A column that reads the survival interval, or prints [empty] in the
   table and "nan" in the CSV fields for an infeasible row. *)
let survival_column ?(empty = "-") title cell csv =
  Runner.column title
    ~csv:
      (List.map
         (fun (name, f) ->
           ( name,
             fun l ->
               match l.survival with
               | None -> "nan"
               | Some iv -> Runner.csv_float (f iv) ))
         csv)
    (fun l -> match l.survival with None -> empty | Some iv -> cell iv)

let run config =
  Runner.print_section
    "Reliability tradeoff -- makespan x memory x survival probability";
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "n=%d tasks, m=%d machines, alpha=%g. Per profile and repetition every\n\
     strategy sees the same workload, realization, and %d crash draws from\n\
     the profile (paired streams), so survival differences are placement\n\
     differences. 'survival' is the Monte-Carlo P(no stranded task) with a\n\
     95%% bootstrap CI over %d draws; 'bound' the analytic union bound the\n\
     reliability solver holds at >= its target.\n\n"
    n m alpha crash_draws_per_rep (reps * crash_draws_per_rep);
  let min_survival = ref infinity and min_bound = ref infinity in
  let lines =
    List.concat
      (List.mapi
         (fun pidx (pname, make_profile) ->
           let profile =
             make_profile
               (Rng.create ~seed:(config.Runner.seed + (613 * pidx)) ())
           in
           let rows =
             List.map
               (fun (name, spec) ->
                 {
                   name;
                   spec;
                   algo = Runner.strategy config ~m spec;
                   ratio = Summary.create ();
                   mem = Summary.create ();
                   bound = Summary.create ();
                   indicators = ref [];
                   infeasible = ref 0;
                 })
               strategy_specs
           in
           Runner.paired_reps config ~salt:(7919 * pidx) ~reps (fun rng ->
               let instance, realization = Runner.generate ~n ~m ~alpha rng in
               let instance = Instance.with_failure instance (Some profile) in
               let lb =
                 Core.Lower_bounds.best ~m (Realization.actuals realization)
               in
               let crash_sets =
                 Array.init crash_draws_per_rep (fun _ -> Rng.split rng)
                 |> Array.map (fun r ->
                        crashed_set ~m
                          (Trace.profile_crashes r ~profile ~horizon:1.0))
               in
               List.iter
                 (fun row ->
                   match row.algo.Core.Two_phase.phase1 instance with
                   | exception Core.Reliability.Infeasible _ ->
                       incr row.infeasible
                   | placement ->
                       let makespan =
                         Schedule.makespan
                           (row.algo.Core.Two_phase.phase2 instance placement
                              realization)
                       in
                       Summary.add row.ratio (makespan /. lb);
                       Summary.add row.mem
                         (Core.Placement.memory_max placement
                            ~sizes:(Instance.sizes instance));
                       Summary.add row.bound
                         (Core.Reliability.survival_bound instance placement);
                       let sets = distinct_sets placement in
                       Array.iter
                         (fun crashed ->
                           row.indicators :=
                             (if survives sets crashed then 1.0 else 0.0)
                             :: !(row.indicators))
                         crash_sets)
                 rows);
           List.map
             (fun row ->
               let survival =
                 if !(row.infeasible) = reps then None
                 else begin
                   let iv =
                     Bootstrap.mean_interval
                       ~rng:(Rng.create ~seed:(config.Runner.seed + 104729) ())
                       (Array.of_list !(row.indicators))
                   in
                   if is_reliability row.spec then begin
                     min_survival := Float.min !min_survival iv.Bootstrap.point;
                     min_bound := Float.min !min_bound (Summary.min row.bound)
                   end;
                   Some iv
                 end
               in
               { pname; row; survival })
             rows)
         profiles)
  in
  (* An infeasible row has empty summaries: every stat reads "-"/"nan". *)
  let stat_column ~csv title summary =
    Runner.mean_or_dash ~csv title (fun l -> summary l.row)
  in
  Runner.report config ~csv:"reliability_tradeoff"
    Runner.
      [
        text ~csv:"profile" "profile" (fun l -> l.pname);
        column ~align:Left
          ~csv:[ ("strategy", fun l -> Strategy.to_string l.row.spec) ]
          "strategy"
          (fun l -> l.row.name);
        stat_column ~csv:"mean_ratio" "mean ratio" (fun r -> r.ratio);
        stat_column ~csv:"mem_max" "mem max" (fun r -> r.mem);
        survival_column ~empty:"infeasible" "survival"
          (fun iv -> f4 iv.Bootstrap.point)
          [ ("survival", fun iv -> iv.Bootstrap.point) ];
        survival_column "95% CI"
          (fun iv ->
            Printf.sprintf "[%s, %s]" (f4 iv.Bootstrap.lo) (f4 iv.Bootstrap.hi))
          [
            ("survival_lo", fun iv -> iv.Bootstrap.lo);
            ("survival_hi", fun iv -> iv.Bootstrap.hi);
          ];
        column
          ~csv:
            [
              ( "bound_min",
                fun l ->
                  if Summary.count l.row.bound = 0 then "nan"
                  else csv_float (Summary.min l.row.bound) );
              ("infeasible_reps", fun l -> string_of_int !(l.row.infeasible));
            ]
          "bound"
          (fun l ->
            if Summary.count l.row.bound = 0 then "-"
            else f4 (Summary.min l.row.bound));
      ]
    lines;
  if Float.is_finite !min_survival then begin
    Metrics.set
      (Metrics.gauge config.Runner.metrics "reliability.survival_min")
      !min_survival;
    Metrics.set
      (Metrics.gauge config.Runner.metrics "reliability.bound_min")
      !min_bound
  end;
  Printf.printf
    "\nFixed-degree strategies pay the same memory on every profile and\n\
     let survival float; the reliability family holds survival above its\n\
     target (bound column) and spends memory only where the profile is\n\
     flaky — degrees shrink on the reliable tier, which is what the\n\
     variable-degree engine plumbing exists for. The budgeted variant\n\
     shows the feasibility edge: a tight memory cap and a tight target\n\
     cannot always both be met.\n"
