module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let formula_table ~m ~alpha ~rho =
  Printf.printf
    "Guarantees at m=%d, alpha=%g, rho1=rho2=%g (the LPT bound).\n\n" m alpha
    rho;
  let table =
    Table.create
      ~columns:
        [
          ("delta", Table.Right);
          ("SABO makespan (Th5)", Table.Right);
          ("SABO memory (Th6)", Table.Right);
          ("ABO makespan (Th7)", Table.Right);
          ("ABO memory (Th8)", Table.Right);
        ]
  in
  List.iter
    (fun delta ->
      Table.add_row table
        [
          Table.cell_float ~decimals:2 delta;
          Table.cell_float (Core.Guarantees.sabo_makespan ~alpha ~delta ~rho1:rho);
          Table.cell_float (Core.Guarantees.sabo_memory ~delta ~rho2:rho);
          Table.cell_float (Core.Guarantees.abo_makespan ~m ~alpha ~delta ~rho1:rho);
          Table.cell_float (Core.Guarantees.abo_memory ~m ~delta ~rho2:rho);
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  print_string (Table.render table)

let measure config ~m ~alpha ~delta ~algo_of_delta ~placement_of_delta =
  let alpha_v = Uncertainty.alpha alpha in
  let rng = Rng.create ~seed:config.Runner.seed () in
  let worst_makespan = ref neg_infinity and worst_memory = ref neg_infinity in
  for _ = 1 to Stdlib.max 5 (config.Runner.reps / 5) do
    let instance =
      Workload.generate
        (Workload.Uniform { lo = 1.0; hi = 10.0 })
        ~size_spec:(Workload.Inverse 5.0) ~n:12 ~m ~alpha:alpha_v rng
    in
    let realization = Realization.uniform_factor instance rng in
    let algo = algo_of_delta delta in
    let schedule = Core.Two_phase.run algo instance realization in
    let opt, _ =
      Runner.opt_estimate config ~m (Realization.actuals realization)
    in
    let mem = Core.Memory.of_placement instance (placement_of_delta delta instance) in
    let mem_star =
      Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance)
    in
    worst_makespan := Float.max !worst_makespan (Schedule.makespan schedule /. opt);
    worst_memory := Float.max !worst_memory (mem /. mem_star)
  done;
  (!worst_makespan, !worst_memory)

let measured_table config ~m ~alpha ~rho =
  Printf.printf
    "\nMeasured worst (makespan ratio, memory ratio) on random instances\n\
     (n=12, uniform times, anti-correlated sizes, uniform factors):\n\n";
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("delta", Table.Right);
          ("makespan ratio", Table.Right);
          ("guarantee", Table.Right);
          ("memory ratio", Table.Right);
          ("guarantee", Table.Right);
        ]
  in
  List.iter
    (fun delta ->
      let sabo_mk, sabo_mem =
        measure config ~m ~alpha ~delta
          ~algo_of_delta:(fun delta ->
            Runner.strategy config ~m (Strategy.Sabo delta))
          ~placement_of_delta:(fun delta instance ->
            Core.Sabo.placement ~delta instance)
      in
      Table.add_row table
        [
          "SABO";
          Table.cell_float ~decimals:2 delta;
          Table.cell_float sabo_mk;
          Table.cell_float (Core.Guarantees.sabo_makespan ~alpha ~delta ~rho1:rho);
          Table.cell_float sabo_mem;
          Table.cell_float (Core.Guarantees.sabo_memory ~delta ~rho2:rho);
        ];
      let abo_mk, abo_mem =
        measure config ~m ~alpha ~delta
          ~algo_of_delta:(fun delta ->
            Runner.strategy config ~m (Strategy.Abo delta))
          ~placement_of_delta:(fun delta instance ->
            Core.Abo.placement ~delta instance)
      in
      Table.add_row table
        [
          "ABO";
          Table.cell_float ~decimals:2 delta;
          Table.cell_float abo_mk;
          Table.cell_float (Core.Guarantees.abo_makespan ~m ~alpha ~delta ~rho1:rho);
          Table.cell_float abo_mem;
          Table.cell_float (Core.Guarantees.abo_memory ~m ~delta ~rho2:rho);
        ])
    [ 0.5; 1.0; 2.0 ];
  print_string (Table.render table)

let run config =
  Runner.print_section "Table 2 -- Memory-aware guarantees (SABO, ABO)";
  let m = 5 and alpha = sqrt 2.0 in
  let rho = Core.Guarantees.lpt_offline ~m in
  formula_table ~m ~alpha ~rho;
  measured_table config ~m ~alpha ~rho;
  Printf.printf
    "\nSelection rule check: alpha*rho1 = %.3f, so per the paper %s has\n\
     the better makespan guarantee for every delta.\n"
    (alpha *. rho)
    (if Core.Guarantees.abo_beats_sabo_on_makespan ~alpha ~rho1:rho then "ABO"
     else "neither algorithm uniformly")
