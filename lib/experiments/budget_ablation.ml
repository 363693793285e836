module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary

let equal_cost_policies config =
  Printf.printf
    "Equal replica budgets, different shapes (m=6, worst adversarial\n\
     ratio over three small instances, exact optimum):\n\n";
  let m = 6 and alpha = 2.0 in
  let instances =
    List.map
      (fun i ->
        Workload.generate
          (Workload.Uniform { lo = 1.0; hi = 6.0 })
          ~n:12 ~m
          ~alpha:(Uncertainty.alpha alpha)
          (Rng.create ~seed:(config.Runner.seed + (7 * i)) ()))
      [ 0; 1; 2 ]
  in
  let worst algo =
    List.fold_left
      (fun acc instance ->
        Float.max acc (Runner.adversarial_ratio config algo instance))
      neg_infinity instances
  in
  let table =
    Table.create
      ~columns:
        [
          ("replicas/task", Table.Right);
          ("LS-Group (disjoint)", Table.Right);
          ("Budgeted (overlapping)", Table.Right);
        ]
  in
  List.iter
    (fun replicas ->
      let group =
        Runner.strategy config ~m Strategy.(Group { order = Ls; k = m / replicas })
      in
      let budgeted = Runner.strategy config ~m (Strategy.Budgeted replicas) in
      Table.add_row table
        [
          string_of_int replicas;
          Table.cell_float (worst group);
          Table.cell_float (worst budgeted);
        ])
    [ 1; 2; 3; 6 ];
  print_string (Table.render table);
  Printf.printf
    "(Overlapping machine sets dominate disjoint groups at equal cost —\n\
     evidence for the paper's conjecture that more general replication\n\
     policies can do better.)\n"

let memory_budget_curve config =
  Printf.printf
    "\nMemory-budget policy: makespan achieved as the per-machine budget\n\
     grows (m=4, n=16, sizes = 1, so the budget counts replicas):\n\n";
  let m = 4 and alpha = 2.0 in
  let instance =
    Workload.generate
      (Workload.Uniform { lo = 1.0; hi = 8.0 })
      ~n:16 ~m
      ~alpha:(Uncertainty.alpha alpha)
      (Rng.create ~seed:config.Runner.seed ())
  in
  let rng = Rng.create ~seed:(config.Runner.seed + 1) () in
  let realizations =
    List.init 10 (fun _ -> Realization.extremes ~p_high:0.3 instance rng)
  in
  let table =
    Table.create
      ~columns:
        [
          ("budget", Table.Right);
          ("total replicas", Table.Right);
          ("mem_max", Table.Right);
          ("mean makespan", Table.Right);
        ]
  in
  List.iter
    (fun budget ->
      let algo = Runner.strategy config ~m (Strategy.Memory_budget budget) in
      let placement = algo.Core.Two_phase.phase1 instance in
      let summary = Summary.create () in
      List.iter
        (fun realization ->
          Summary.add summary
            (Usched_desim.Schedule.makespan
               (algo.Core.Two_phase.phase2 instance placement realization)))
        realizations;
      Table.add_row table
        [
          Table.cell_float ~decimals:0 budget;
          string_of_int (Core.Placement.total_replicas placement);
          Table.cell_float
            (Core.Memory_budget.max_memory_load instance placement);
          Table.cell_float (Summary.mean summary);
        ])
    [ 4.0; 5.0; 6.0; 8.0; 12.0; 16.0 ];
  print_string (Table.render table);
  Printf.printf
    "(Budget 4 = bare fit, no replicas; by budget 16 every task fits\n\
     everywhere and the makespan matches full replication.)\n"

let run config =
  Runner.print_section "Ablation -- replication policies at equal cost";
  equal_cost_policies config;
  memory_budget_curve config
