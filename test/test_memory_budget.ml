(* Tests for the memory-budget-constrained placement. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let close = Alcotest.(check (float 1e-9))

let unit_instance ?(m = 4) ?(n = 16) () =
  Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0)
    (Array.init n (fun i -> 1.0 +. float_of_int (i mod 5)))

let never_exceeds_budget () =
  let inst = unit_instance () in
  List.iter
    (fun budget ->
      let p = Core.Memory_budget.placement ~budget inst in
      checkb
        (Printf.sprintf "budget %g respected" budget)
        true
        (Core.Memory_budget.max_memory_load inst p <= budget +. 1e-9))
    [ 4.0; 5.0; 7.0; 16.0 ]

let bare_budget_means_no_replicas () =
  (* 16 unit-size tasks on 4 machines: budget 4 leaves zero headroom. *)
  let inst = unit_instance () in
  let p = Core.Memory_budget.placement ~budget:4.0 inst in
  checki "singletons only" 1 (Core.Placement.max_replication p);
  checki "exactly n replicas" 16 (Core.Placement.total_replicas p)

let ample_budget_replicates_everywhere () =
  let inst = unit_instance () in
  let p = Core.Memory_budget.placement ~budget:16.0 inst in
  checki "full replication" 4 (Core.Placement.max_replication p);
  checki "n*m replicas" 64 (Core.Placement.total_replicas p)

let replicas_grow_with_budget () =
  let inst = unit_instance () in
  let replicas budget =
    Core.Placement.total_replicas (Core.Memory_budget.placement ~budget inst)
  in
  checkb "monotone" true
    (replicas 4.0 <= replicas 6.0
    && replicas 6.0 <= replicas 10.0
    && replicas 10.0 <= replicas 16.0)

let infeasible_cases () =
  let inst = unit_instance () in
  checkb "budget below task size" true
    (try
       ignore (Core.Memory_budget.placement ~budget:0.5 inst);
       false
     with Core.Memory_budget.Infeasible _ -> true);
  checkb "aggregate too small" true
    (try
       ignore (Core.Memory_budget.placement ~budget:2.0 inst);
       false
     with Core.Memory_budget.Infeasible _ -> true);
  Alcotest.check_raises "non-positive budget"
    (Invalid_argument "Memory_budget: budget must be > 0") (fun () ->
      ignore (Core.Memory_budget.placement ~budget:0.0 inst))

let repair_moves_oversized_piles () =
  (* LPT on estimates piles big-data tasks together; repair must spread
     them to fit the budget. Sizes anti-correlated with estimates. *)
  let inst =
    Instance.of_ests ~m:2
      ~alpha:(Uncertainty.alpha 1.5)
      ~sizes:[| 1.0; 1.0; 4.0; 4.0 |]
      [| 10.0; 10.0; 1.0; 1.0 |]
  in
  (* LPT by estimate puts tasks 2,3 (the big-data ones) on... whatever it
     does, budget 5 forces one big-data task per machine. *)
  let p = Core.Memory_budget.placement ~budget:5.0 inst in
  checkb "fits" true (Core.Memory_budget.max_memory_load inst p <= 5.0 +. 1e-9)

let schedules_valid_and_improve () =
  let inst = unit_instance () in
  let rng = Rng.create ~seed:17 () in
  let realization = Realization.extremes ~p_high:0.3 inst rng in
  let makespan budget =
    let algo = Core.Strategy.build (Memory_budget budget) ~m:4 in
    let placement, schedule = Core.Two_phase.run_full algo inst realization in
    checkb "valid" true
      (Schedule.validate ~placement:(Core.Placement.sets placement) inst
         realization schedule
      = []);
    Schedule.makespan schedule
  in
  let tight = makespan 4.0 and ample = makespan 16.0 in
  checkb "more memory never hurts on this instance" true (ample <= tight +. 1e-9)

let ample_equals_full_replication () =
  let inst = unit_instance () in
  let rng = Rng.create ~seed:18 () in
  let realization = Realization.uniform_factor inst rng in
  close "matches LPT-No Restriction"
    (Core.Two_phase.makespan
       Core.Strategy.(build (Full_replication Lpt) ~m:4)
       inst realization)
    (Core.Two_phase.makespan
       (Core.Strategy.build (Memory_budget 16.0) ~m:4)
       inst realization)

let () =
  Alcotest.run "memory_budget"
    [
      ( "unit",
        [
          Alcotest.test_case "budget respected" `Quick never_exceeds_budget;
          Alcotest.test_case "bare budget" `Quick bare_budget_means_no_replicas;
          Alcotest.test_case "ample budget" `Quick ample_budget_replicates_everywhere;
          Alcotest.test_case "monotone replicas" `Quick replicas_grow_with_budget;
          Alcotest.test_case "infeasibility" `Quick infeasible_cases;
          Alcotest.test_case "repair" `Quick repair_moves_oversized_piles;
          Alcotest.test_case "valid + improving" `Quick schedules_valid_and_improve;
          Alcotest.test_case "ample = full replication" `Quick
            ample_equals_full_replication;
        ] );
    ]
