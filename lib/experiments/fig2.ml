module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let run config =
  Runner.print_section "Figure 2 -- Replication in groups (m=6, k=2)";
  let m = 6 and k = 2 in
  let alpha = Uncertainty.alpha 1.5 in
  let ests = [| 5.0; 4.0; 4.0; 3.0; 3.0; 2.0; 2.0; 2.0; 1.0; 1.0; 1.0; 1.0 |] in
  let instance = Instance.of_ests ~m ~alpha ests in
  let groups = Core.Group_replication.machine_groups ~m ~k in
  let assignment =
    Core.Group_replication.group_assignment ~order:`Submission ~k instance
  in
  Printf.printf "Phase 1: List Scheduling of estimated loads over %d groups.\n" k;
  let table =
    Table.create
      ~columns:
        [
          ("task", Table.Right);
          ("estimate", Table.Right);
          ("group", Table.Right);
          ("replicated on machines", Table.Left);
        ]
  in
  Array.iteri
    (fun j g ->
      let machines =
        String.concat ", "
          (Array.to_list (Array.map string_of_int groups.(g)))
      in
      Table.add_row table
        [
          string_of_int j;
          Table.cell_float ests.(j);
          string_of_int g;
          machines;
        ])
    assignment;
  print_string (Table.render table);

  (* Phase 2 against a perturbed realization. *)
  let rng = Rng.create ~seed:7 () in
  let realization = Realization.log_uniform_factor instance rng in
  let algo = Runner.strategy config ~m Strategy.(Group { order = Ls; k }) in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Printf.printf
    "\nPhase 2: online List Scheduling inside each group (actual times\n\
     drawn log-uniformly within the alpha interval).\n\n";
  print_string (Gantt.render ~width:60 schedule);
  Printf.printf "\nC_max = %g; every task ran inside its phase-1 group: %b\n"
    (Schedule.makespan schedule)
    (Usched_desim.Schedule.validate ~placement:(Core.Placement.sets placement)
       instance realization schedule
    = []);
  Printf.printf "Replication per task: %d machines (= m/k).\n"
    (Core.Placement.max_replication placement)
