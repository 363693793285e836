(* Tests for the adversaries (worst-case realization constructions). *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let alpha = 2.0

let identical_instance ~lambda ~m =
  Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha)
    (Array.make (lambda * m) 1.0)

let theorem1_inflates_most_loaded () =
  (* 2 machines, 4 unit tasks placed 3-1 by hand. *)
  let instance = identical_instance ~lambda:2 ~m:2 in
  let placement = Core.Placement.singletons ~m:2 [| 0; 0; 0; 1 |] in
  let r = Core.Adversary.theorem1 instance placement in
  (* Tasks on machine 0 inflated to 2, the other deflated to 0.5. *)
  close "task 0 inflated" 2.0 (Realization.actual r 0);
  close "task 2 inflated" 2.0 (Realization.actual r 2);
  close "task 3 deflated" 0.5 (Realization.actual r 3)

let theorem1_deflates_replicated_tasks () =
  (* Replicated tasks are not pinned, so the adversary deflates them. *)
  let instance = identical_instance ~lambda:1 ~m:2 in
  let placement =
    Core.Placement.of_sets ~m:2
      [| Usched_model.Bitset.full 2; Usched_model.Bitset.singleton 2 1 |]
  in
  let r = Core.Adversary.theorem1 instance placement in
  close "replicated task deflated" 0.5 (Realization.actual r 0);
  close "pinned task inflated" 2.0 (Realization.actual r 1)

let theorem1_achieves_proof_ratio () =
  (* On the proof's instance, the realized ratio must match the
     construction's value (using the exact optimum). *)
  let m = 3 and lambda = 3 in
  let instance = identical_instance ~lambda ~m in
  let algo = Core.Strategy.(build (No_replication Lpt) ~m) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let realization = Core.Adversary.theorem1 instance placement in
  let schedule = algo.Core.Two_phase.phase2 instance placement realization in
  (* Online: one machine runs lambda inflated tasks. *)
  close "online makespan" (float_of_int lambda *. alpha)
    (Schedule.makespan schedule);
  let opt = Core.Opt.makespan ~m (Realization.actuals realization) in
  let ratio = Schedule.makespan schedule /. opt in
  (* Must be sandwiched between 1 and the Theorem-2 guarantee. *)
  checkb "sanity" true (ratio > 1.0);
  checkb "below guarantee" true
    (ratio <= Core.Guarantees.lpt_no_choice ~m ~alpha +. 1e-9)

let inflate_machine_targets_replicas_too () =
  let instance = identical_instance ~lambda:1 ~m:2 in
  let placement = Core.Placement.full ~m:2 ~n:2 in
  let r = Core.Adversary.inflate_machine 0 instance placement in
  (* Everything is on machine 0 (full replication), so all inflated. *)
  close "task 0" 2.0 (Realization.actual r 0);
  close "task 1" 2.0 (Realization.actual r 1)

let ratio_helper_consistent () =
  let instance = identical_instance ~lambda:2 ~m:2 in
  let algo = Core.Strategy.(build (No_replication Lpt) ~m:2) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let run r = algo.Core.Two_phase.phase2 instance placement r in
  let opt actuals = Core.Opt.makespan ~m:2 actuals in
  let r = Core.Adversary.theorem1 instance placement in
  let direct =
    Schedule.makespan (run r) /. opt (Realization.actuals r)
  in
  close "same value" direct (Core.Adversary.ratio ~run ~opt r)

let greedy_flip_no_worse_than_start () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha alpha)
      [| 3.0; 2.0; 2.0; 1.0; 1.0 |]
  in
  let algo = Core.Strategy.(build (No_replication Lpt) ~m:2) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let run r = algo.Core.Two_phase.phase2 instance placement r in
  let opt actuals = Core.Opt.makespan ~m:2 actuals in
  let all_low =
    Realization.of_factors instance (Array.make 5 (1.0 /. alpha))
  in
  let start = Core.Adversary.ratio ~run ~opt all_low in
  let found =
    Core.Adversary.ratio ~run ~opt (Core.Adversary.greedy_flip ~run ~opt instance)
  in
  checkb "local search only improves" true (found >= start -. 1e-9)

let exhaustive_dominates_heuristics () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha alpha)
      [| 2.0; 2.0; 1.0; 1.0; 1.0; 1.0 |]
  in
  let algo = Core.Strategy.(build (No_replication Lpt) ~m:2) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let run r = algo.Core.Two_phase.phase2 instance placement r in
  let opt actuals = Core.Opt.makespan ~m:2 actuals in
  let _, best = Core.Adversary.exhaustive ~run ~opt instance in
  let theorem1 =
    Core.Adversary.ratio ~run ~opt (Core.Adversary.theorem1 instance placement)
  in
  let greedy =
    Core.Adversary.ratio ~run ~opt (Core.Adversary.greedy_flip ~run ~opt instance)
  in
  checkb "exhaustive >= theorem1" true (best >= theorem1 -. 1e-9);
  checkb "exhaustive >= greedy" true (best >= greedy -. 1e-9)

let exhaustive_rejects_large () =
  let instance = identical_instance ~lambda:11 ~m:2 in
  Alcotest.check_raises "n too large"
    (Invalid_argument "Adversary.exhaustive: instance too large") (fun () ->
      ignore
        (Core.Adversary.exhaustive
           ~run:(fun _ -> assert false)
           ~opt:(fun _ -> 1.0)
           instance))

let adversary_realizations_are_admissible () =
  (* Every adversary must stay inside the alpha interval (of_factors
     validates, so constructing them is the test). *)
  let instance = identical_instance ~lambda:2 ~m:3 in
  let algo = Core.Strategy.(build (No_replication Lpt) ~m:3) in
  let placement = algo.Core.Two_phase.phase1 instance in
  ignore (Core.Adversary.theorem1 instance placement);
  ignore (Core.Adversary.inflate_machine 1 instance placement);
  let run r = algo.Core.Two_phase.phase2 instance placement r in
  let opt actuals = Core.Lower_bounds.best ~m:3 actuals in
  ignore (Core.Adversary.greedy_flip ~run ~opt instance);
  checkb "all constructions admissible" true true

let () =
  Alcotest.run "adversary"
    [
      ( "theorem1",
        [
          Alcotest.test_case "inflates most loaded" `Quick
            theorem1_inflates_most_loaded;
          Alcotest.test_case "deflates replicated" `Quick
            theorem1_deflates_replicated_tasks;
          Alcotest.test_case "achieves proof ratio" `Quick
            theorem1_achieves_proof_ratio;
        ] );
      ( "search adversaries",
        [
          Alcotest.test_case "inflate_machine" `Quick
            inflate_machine_targets_replicas_too;
          Alcotest.test_case "ratio helper" `Quick ratio_helper_consistent;
          Alcotest.test_case "greedy improves" `Quick greedy_flip_no_worse_than_start;
          Alcotest.test_case "exhaustive dominates" `Quick
            exhaustive_dominates_heuristics;
          Alcotest.test_case "exhaustive size guard" `Quick exhaustive_rejects_large;
          Alcotest.test_case "admissibility" `Quick
            adversary_realizations_are_admissible;
        ] );
    ]
