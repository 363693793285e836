(* Tests for the per-task replication budget policy. *)

module Core = Usched_core
module Strategy = Usched_core.Strategy
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance ?(m = 4) () =
  Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0)
    [| 8.0; 7.0; 5.0; 4.0; 3.0; 2.0; 2.0; 1.0 |]

let respects_budgets () =
  let inst = instance () in
  let budgets = [| 1; 2; 3; 4; 1; 2; 3; 4 |] in
  let p = Core.Budgeted.placement ~budgets inst in
  Array.iteri
    (fun j budget ->
      checki (Printf.sprintf "task %d" j) budget (Core.Placement.replication p j))
    budgets

let budgets_clamped () =
  let inst = instance () in
  let p = Core.Budgeted.placement ~budgets:(Array.make 8 99) inst in
  checki "clamped to m" 4 (Core.Placement.max_replication p);
  let p0 = Core.Budgeted.placement ~budgets:(Array.make 8 0) inst in
  checki "clamped to 1" 1 (Core.Placement.max_replication p0)

let length_mismatch_rejected () =
  Alcotest.check_raises "length"
    (Invalid_argument "Budgeted.placement: budgets length differs from instance")
    (fun () -> ignore (Core.Budgeted.placement ~budgets:[| 1 |] (instance ())))

let budget_one_is_lpt_no_choice () =
  let inst = instance () in
  let rng = Rng.create ~seed:3 () in
  let realization = Realization.uniform_factor inst rng in
  close "same makespan as LPT-No Choice"
    (Core.Two_phase.makespan
       Strategy.(build (No_replication Lpt) ~m:4)
       inst realization)
    (Core.Two_phase.makespan (Strategy.build (Budgeted 1) ~m:4) inst realization)

let budget_m_is_no_restriction () =
  let inst = instance () in
  let rng = Rng.create ~seed:4 () in
  let realization = Realization.uniform_factor inst rng in
  close "same makespan as LPT-No Restriction"
    (Core.Two_phase.makespan
       Strategy.(build (Full_replication Lpt) ~m:4)
       inst realization)
    (Core.Two_phase.makespan (Strategy.build (Budgeted 4) ~m:4) inst realization)

let primary_on_least_loaded () =
  (* With budget 2 and tasks in LPT order, the first m tasks' machine
     sets must pair each machine with the next least-loaded one. *)
  let inst = instance () in
  let p = Core.Budgeted.placement ~budgets:(Array.make 8 2) inst in
  (* Task 0 (est 8, first placed) is on machines {0, 1}. *)
  checkb "task 0 on m0" true (Core.Placement.allowed p ~task:0 ~machine:0);
  checkb "task 0 on m1" true (Core.Placement.allowed p ~task:0 ~machine:1)

let schedules_valid () =
  let inst = instance () in
  let rng = Rng.create ~seed:5 () in
  for k = 1 to 4 do
    let realization = Realization.extremes ~p_high:0.4 inst rng in
    let algo = Strategy.build (Budgeted k) ~m:4 in
    let placement, schedule = Core.Two_phase.run_full algo inst realization in
    checkb
      (Printf.sprintf "k=%d valid" k)
      true
      (Schedule.validate ~placement:(Core.Placement.sets placement) inst
         realization schedule
      = [])
  done

let proportional_budgets () =
  let inst = instance () in
  let algo = Strategy.build (Proportional 0.25) ~m:4 in
  let p = algo.Core.Two_phase.phase1 inst in
  (* Two largest tasks (25% of 8) fully replicated, rest singleton. *)
  checki "task 0 full" 4 (Core.Placement.replication p 0);
  checki "task 1 full" 4 (Core.Placement.replication p 1);
  checki "task 2 pinned" 1 (Core.Placement.replication p 2)

let proportional_rejects_bad_fraction () =
  Alcotest.check_raises "fraction"
    (Invalid_argument "Budgeted.proportional_placement: fraction out of [0, 1]")
    (fun () ->
      ignore (Core.Budgeted.proportional_placement ~fraction:1.5 (instance ())))

let adversarial_no_worse_than_groups () =
  (* The headline of the equal-cost ablation, pinned as a regression
     test on one fixed instance: overlapping sets do at least as well as
     disjoint groups against the Theorem-1 adversary. *)
  let m = 6 in
  let inst =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) (Array.make 12 1.0)
  in
  let worst algo =
    let placement = algo.Core.Two_phase.phase1 inst in
    let realization = Core.Adversary.theorem1 inst placement in
    let schedule = algo.Core.Two_phase.phase2 inst placement realization in
    Schedule.makespan schedule
    /. Core.Opt.makespan ~m (Realization.actuals realization)
  in
  checkb "budgeted <= ls-group at 2 replicas" true
    (worst (Strategy.build (Budgeted 2) ~m)
    <= worst Strategy.(build (Group { order = Ls; k = 3 }) ~m) +. 1e-9)

let () =
  Alcotest.run "budgeted"
    [
      ( "unit",
        [
          Alcotest.test_case "respects budgets" `Quick respects_budgets;
          Alcotest.test_case "clamping" `Quick budgets_clamped;
          Alcotest.test_case "length check" `Quick length_mismatch_rejected;
          Alcotest.test_case "k=1 = LPT-No Choice" `Quick budget_one_is_lpt_no_choice;
          Alcotest.test_case "k=m = LPT-No Restriction" `Quick
            budget_m_is_no_restriction;
          Alcotest.test_case "least-loaded sets" `Quick primary_on_least_loaded;
          Alcotest.test_case "valid schedules" `Quick schedules_valid;
          Alcotest.test_case "proportional" `Quick proportional_budgets;
          Alcotest.test_case "proportional domain" `Quick
            proportional_rejects_bad_fraction;
          Alcotest.test_case "vs groups adversarially" `Quick
            adversarial_no_worse_than_groups;
        ] );
    ]
