(* The Theorem-1 adversary, step by step.

   Shows how an adversary that controls actual processing times (within
   the alpha intervals) punishes a scheduler that cannot move tasks, and
   why replication blunts the attack.

   Run with: dune exec examples/adversary_demo.exe *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Core = Usched_core

let m = 4
let lambda = 3
let alpha = 2.0

let () =
  Printf.printf
    "Adversary demo: %d machines, %d unit-estimate tasks, alpha = %g.\n\n"
    m (lambda * m) alpha;
  let instance =
    Instance.of_ests ~m
      ~alpha:(Uncertainty.alpha alpha)
      (Array.make (lambda * m) 1.0)
  in

  (* Step 1: the scheduler commits to a placement using estimates only. *)
  let algo = Core.Strategy.(build (No_replication Lpt) ~m) in
  let placement = algo.Core.Two_phase.phase1 instance in
  Printf.printf
    "Step 1 (phase 1): LPT spreads the %d identical tasks %d per machine.\n"
    (lambda * m) lambda;

  (* Step 2: the adversary inspects the placement and picks actual times. *)
  let realization = Core.Adversary.theorem1 instance placement in
  Printf.printf
    "Step 2 (adversary): inflate one machine's tasks to %g, deflate the\n\
     rest to %g.\n\n"
    alpha (1.0 /. alpha);

  (* Step 3: execution. The pinned schedule cannot react. *)
  let schedule = algo.Core.Two_phase.phase2 instance placement realization in
  print_string (Gantt.render ~width:60 schedule);
  let opt = Core.Opt.makespan ~m (Realization.actuals realization) in
  Printf.printf "\npinned C_max = %.2f   clairvoyant C*_max = %.2f   ratio %.3f\n"
    (Schedule.makespan schedule) opt
    (Schedule.makespan schedule /. opt);
  Printf.printf "Theorem 1 says no unreplicated scheduler can beat %.3f (m -> inf: %.3f).\n"
    (Core.Guarantees.no_replication_lower_bound ~m ~alpha)
    (Core.Guarantees.no_replication_lower_bound_limit ~alpha);

  (* Step 4: the same adversarial times against full replication. *)
  let flexible = Core.Strategy.(build (Full_replication Lpt) ~m) in
  let full_placement = flexible.Core.Two_phase.phase1 instance in
  let flexible_schedule =
    flexible.Core.Two_phase.phase2 instance full_placement realization
  in
  Printf.printf
    "\nStep 4: full replication against the *same* realization:\n";
  print_string (Gantt.render ~width:60 flexible_schedule);
  Printf.printf "replicated C_max = %.2f   ratio %.3f\n"
    (Schedule.makespan flexible_schedule)
    (Schedule.makespan flexible_schedule /. opt);
  Printf.printf
    "\nThe online scheduler rebalances as completions reveal the truth;\n\
     the adversary's leverage collapses from ~alpha^2 to ~1.\n"
