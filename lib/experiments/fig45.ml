module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let example_instance () =
  (* Tasks 0-3 are time-heavy with small data; tasks 4-7 are short but
     carry large data — exactly the mix SBO's split is designed for. *)
  let ests = [| 8.0; 7.0; 6.0; 5.0; 1.0; 1.0; 0.5; 0.5 |] in
  let sizes = [| 1.0; 1.0; 1.0; 1.0; 6.0; 6.0; 8.0; 8.0 |] in
  Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.3) ~sizes ests

let show_split instance split =
  let table =
    Table.create
      ~columns:
        [
          ("task", Table.Right);
          ("estimate", Table.Right);
          ("size", Table.Right);
          ("set", Table.Left);
        ]
  in
  Array.iteri
    (fun j in_s1 ->
      Table.add_row table
        [
          string_of_int j;
          Table.cell_float (Instance.est instance j);
          Table.cell_float (Instance.size instance j);
          (if in_s1 then "S1 (time-intensive)" else "S2 (memory-intensive)");
        ])
    split.Core.Sbo.time_intensive;
  print_string (Table.render table)

let show_algorithm name algo instance realization =
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Printf.printf "\n%s schedule (phase 2, actual times):\n" name;
  print_string (Gantt.render ~width:56 schedule);
  let mem = Core.Memory.of_placement instance placement in
  let mem_star =
    Core.Memory.lower_bound ~m:(Instance.m instance)
      ~sizes:(Instance.sizes instance)
  in
  Printf.printf
    "C_max = %.3f   Mem_max = %.3f   (memory lower bound %.3f)\n\
     max replication = %d, total replicas = %d\n"
    (Schedule.makespan schedule) mem mem_star
    (Core.Placement.max_replication placement)
    (Core.Placement.total_replicas placement)

let run config =
  Runner.print_section
    "Figures 4 & 5 -- SABO and ABO example schedules (m=4, delta=1)";
  let instance = example_instance () in
  let delta = 1.0 in
  let split = Core.Sbo.split ~delta instance in
  Printf.printf
    "SBO split with delta=%g: task j joins S2 iff est_j/C^pi1 <= delta *\n\
     size_j/Mem^pi2 (C^pi1 = %.3f, Mem^pi2 = %.3f).\n\n"
    delta split.Core.Sbo.c_pi1 split.Core.Sbo.mem_pi2;
  show_split instance split;
  let rng = Rng.create ~seed:11 () in
  let realization = Realization.log_uniform_factor instance rng in
  let m = Instance.m instance in
  show_algorithm "Figure 4: SABO (static, no replication)"
    (Runner.strategy config ~m (Strategy.Sabo delta))
    instance realization;
  show_algorithm
    "Figure 5: ABO (S2 pinned, S1 replicated everywhere + online LS)"
    (Runner.strategy config ~m (Strategy.Abo delta))
    instance realization;
  Printf.printf
    "\nReading: ABO trades memory (replicas of S1 tasks on every machine)\n\
     for a tighter makespan; SABO stays replica-free, with more memory\n\
     headroom but a looser makespan.\n"
