module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let theoretical_ratio_at_lambda ~m ~alpha ~lambda =
  let a2 = alpha *. alpha in
  let mf = float_of_int m and lf = float_of_int lambda in
  a2 *. mf *. lf /. ((lf *. (a2 +. mf -. 1.0)) +. (mf *. (a2 +. 1.0)))

let identical_instance ~lambda ~m ~alpha =
  let rng = Rng.create ~seed:0 () in
  Workload.generate (Workload.Identical 1.0) ~n:(lambda * m) ~m
    ~alpha:(Uncertainty.alpha alpha) rng

let adversarial_run config ~lambda ~m ~alpha =
  let instance = identical_instance ~lambda ~m ~alpha in
  let algo = Runner.strategy config ~m Strategy.(No_replication Lpt) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let realization = Core.Adversary.theorem1 instance placement in
  let schedule = algo.Core.Two_phase.phase2 instance placement realization in
  let actuals = Realization.actuals realization in
  (* The realized instance has only two distinct values, which the
     branch-and-bound's symmetry pruning handles easily well past the
     generic exact_n threshold. *)
  let opt, exact =
    if Array.length actuals <= 30 then begin
      let r = Core.Opt.solve ~node_limit:5_000_000 ~m actuals in
      if r.Core.Opt.optimal then (r.Core.Opt.value, true)
      else Runner.opt_estimate config ~m actuals
    end
    else Runner.opt_estimate config ~m actuals
  in
  (instance, realization, schedule, opt, exact)

(* The offline optimum schedule on the realized times, for the
   side-by-side Gantt of the figure. *)
let offline_optimal_schedule ~m actuals =
  let assignment = Core.Multifit.schedule ~iterations:30 ~m actuals in
  Schedule.of_assignment ~m ~durations:actuals assignment.Core.Assign.assignment

let run config =
  Runner.print_section
    "Figure 1 -- Theorem 1 adversary (no replication, identical tasks)";
  let m = 6 and alpha = 2.0 in
  Printf.printf "Setting: m=%d, alpha=%g, lambda*m unit-estimate tasks.\n" m alpha;
  Printf.printf
    "The adversary inflates the most loaded machine to alpha*est and\n\
     deflates every other task to est/alpha (after placement).\n\n";

  (* The illustration of the paper: lambda = 3. *)
  let _, realization, online, _, _ =
    adversarial_run config ~lambda:3 ~m ~alpha
  in
  let offline = offline_optimal_schedule ~m (Realization.actuals realization) in
  print_string
    (Gantt.render_two ~width:30 ~left_title:"online (LPT-No Choice)"
       ~right_title:"offline (MULTIFIT on actuals)" online offline);
  Printf.printf "\n";

  let table =
    Table.create
      ~columns:
        [
          ("lambda", Table.Right);
          ("n", Table.Right);
          ("C_max", Table.Right);
          ("C*_max", Table.Right);
          ("measured ratio", Table.Right);
          ("proof ratio(lambda)", Table.Right);
          ("limit bound", Table.Right);
        ]
  in
  let limit = Core.Guarantees.no_replication_lower_bound ~m ~alpha in
  List.iter
    (fun lambda ->
      let _, _, schedule, opt, exact =
        adversarial_run config ~lambda ~m ~alpha
      in
      let cmax = Schedule.makespan schedule in
      let measured = cmax /. opt in
      Table.add_row table
        [
          string_of_int lambda;
          string_of_int (lambda * m);
          Table.cell_float cmax;
          Table.cell_float opt ^ (if exact then "" else "~");
          Table.cell_float measured;
          Table.cell_float (theoretical_ratio_at_lambda ~m ~alpha ~lambda);
          Table.cell_float limit;
        ])
    [ 1; 2; 3; 4; 6; 10; 20; 50 ];
  print_string (Table.render table);
  Printf.printf
    "('~' marks a lower-bound optimum estimate; measured ratios climb\n\
     toward the impossibility bound %.4f as lambda grows, as Theorem 1\n\
     predicts.)\n"
    limit
