(* Tests for the three replication strategies of the paper. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance_of ?(m = 2) ?(alpha = 1.5) ests =
  Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ests

let lpt_no_choice = Core.Strategy.No_replication Lpt
let lpt_no_restriction = Core.Strategy.Full_replication Lpt
let ls_no_restriction = Core.Strategy.Full_replication Ls

(* The catalog algorithm [spec] for [instance]'s machine count. *)
let algo spec instance = Core.Strategy.build spec ~m:(Instance.m instance)

(* --- Strategy 1: no replication --- *)

let lpt_no_choice_placement_is_lpt () =
  let instance = instance_of ~m:2 [| 1.0; 5.0; 3.0 |] in
  let p = Core.No_replication.placement ~order:`Lpt instance in
  checki "singleton everywhere" 1 (Core.Placement.max_replication p);
  (* LPT on (1,5,3): 5 -> m0, 3 -> m1, 1 -> m1. *)
  checkb "task 1 on m0" true (Core.Placement.allowed p ~task:1 ~machine:0);
  checkb "task 2 on m1" true (Core.Placement.allowed p ~task:2 ~machine:1);
  checkb "task 0 on m1" true (Core.Placement.allowed p ~task:0 ~machine:1)

let lpt_no_choice_static_under_perturbation () =
  (* However the actual times land, tasks stay on their phase-1 machine. *)
  let instance = instance_of ~m:2 ~alpha:2.0 [| 4.0; 4.0; 4.0; 4.0 |] in
  let pinned = algo lpt_no_choice instance in
  let placement = pinned.Core.Two_phase.phase1 instance in
  let rng = Rng.create ~seed:5 () in
  for _ = 1 to 10 do
    let realization = Realization.uniform_factor instance rng in
    let s = pinned.Core.Two_phase.phase2 instance placement realization in
    Array.iteri
      (fun j _ ->
        checkb "pinned" true
          (Core.Placement.allowed placement ~task:j
             ~machine:(Helpers.machine_of s j)))
      (Instance.tasks instance)
  done

let lpt_no_choice_exact_alpha_matches_offline_lpt () =
  (* With alpha = 1 the two-phase pipeline is exactly offline LPT. *)
  let instance = instance_of ~m:3 ~alpha:1.0 [| 9.0; 7.0; 6.0; 5.0; 4.0; 2.0 |] in
  let realization = Realization.exact instance in
  let two_phase =
    Core.Two_phase.makespan (algo lpt_no_choice instance) instance realization
  in
  let offline =
    Core.Assign.makespan (Core.Assign.lpt ~m:3 ~weights:(Instance.ests instance))
  in
  close "same makespan" offline two_phase

(* --- Strategy 2: full replication --- *)

let lpt_no_restriction_adapts () =
  (* Estimates say tasks 0,1 are long; reality reverses it. Full
     replication lets phase 2 rebalance; no replication cannot. *)
  let instance = instance_of ~m:2 ~alpha:3.0 [| 6.0; 6.0; 2.0; 2.0; 2.0; 2.0 |] in
  let actuals = [| 2.0; 2.0; 6.0; 6.0; 2.0; 2.0 |] in
  let realization = Realization.of_actuals instance actuals in
  let flexible =
    Core.Two_phase.makespan (algo lpt_no_restriction instance) instance
      realization
  in
  let pinned =
    Core.Two_phase.makespan (algo lpt_no_choice instance) instance realization
  in
  checkb "replication adapts at least as well" true (flexible <= pinned +. 1e-9)

let ls_no_restriction_is_graham () =
  (* Submission-order online LS on exact times: textbook example. *)
  let instance = instance_of ~m:2 ~alpha:1.0 [| 3.0; 3.0; 2.0; 2.0 |] in
  let realization = Realization.exact instance in
  let s =
    Core.Two_phase.run (algo ls_no_restriction instance) instance realization
  in
  close "LS makespan" 5.0 (Schedule.makespan s)

let full_replication_placement () =
  let instance = instance_of ~m:3 [| 1.0; 1.0 |] in
  let p = (algo lpt_no_restriction instance).Core.Two_phase.phase1 instance in
  checki "replicated everywhere" 3 (Core.Placement.max_replication p)

(* --- Strategy 3: groups --- *)

let machine_groups_divisible () =
  let groups = Core.Group_replication.machine_groups ~m:6 ~k:2 in
  Alcotest.(check (array (array int))) "contiguous halves"
    [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |]
    groups

let machine_groups_uneven () =
  let groups = Core.Group_replication.machine_groups ~m:7 ~k:3 in
  checki "three groups" 3 (Array.length groups);
  Alcotest.(check (list int)) "sizes 3,2,2"
    [ 3; 2; 2 ]
    (Array.to_list (Array.map Array.length groups));
  (* Every machine appears exactly once. *)
  let all = Array.concat (Array.to_list groups) in
  Array.sort compare all;
  Alcotest.(check (array int)) "partition" (Array.init 7 (fun i -> i)) all

let machine_groups_bounds () =
  Alcotest.check_raises "k too large"
    (Invalid_argument "Group_replication: need 1 <= k <= m") (fun () ->
      ignore (Core.Group_replication.machine_groups ~m:3 ~k:4))

let group_assignment_balances_groups () =
  (* 4 equal tasks over 2 groups: 2 in each. *)
  let instance = instance_of ~m:4 [| 2.0; 2.0; 2.0; 2.0 |] in
  let a =
    Core.Group_replication.group_assignment ~order:`Submission ~k:2 instance
  in
  let count g = Array.fold_left (fun acc x -> if x = g then acc + 1 else acc) 0 a in
  checki "group 0 gets 2" 2 (count 0);
  checki "group 1 gets 2" 2 (count 1)

let ls_group_k1_equals_full_replication () =
  let instance = instance_of ~m:3 ~alpha:2.0 [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  let rng = Rng.create ~seed:8 () in
  let realization = Realization.uniform_factor instance rng in
  let group =
    Core.Two_phase.makespan
      (algo (Group { order = Ls; k = 1 }) instance)
      instance realization
  in
  let full =
    Core.Two_phase.makespan (algo ls_no_restriction instance) instance
      realization
  in
  close "k=1 is full replication with LS order" full group

let ls_group_km_is_singleton () =
  let instance = instance_of ~m:3 [| 5.0; 4.0; 3.0 |] in
  let p = Core.Group_replication.placement ~order:`Submission ~k:3 instance in
  checki "groups of one machine" 1 (Core.Placement.max_replication p)

let ls_group_respects_groups () =
  let instance = instance_of ~m:6 ~alpha:2.0 (Array.make 12 1.0) in
  let rng = Rng.create ~seed:9 () in
  let realization = Realization.extremes ~p_high:0.5 instance rng in
  let placement, schedule =
    Core.Two_phase.run_full
      (algo (Group { order = Ls; k = 2 }) instance)
      instance realization
  in
  Alcotest.(check (list string)) "valid vs placement" []
    (List.map
       (Format.asprintf "%a" Helpers.pp_violation)
       (Schedule.validate ~placement:(Core.Placement.sets placement) instance
          realization schedule))

let lpt_group_uses_lpt_order () =
  (* Within one group of all machines, LPT-Group = LPT-No Restriction. *)
  let instance = instance_of ~m:3 ~alpha:2.0 [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  let rng = Rng.create ~seed:10 () in
  let realization = Realization.uniform_factor instance rng in
  close "k=1 LPT group = LPT no restriction"
    (Core.Two_phase.makespan (algo lpt_no_restriction instance) instance
       realization)
    (Core.Two_phase.makespan
       (algo (Group { order = Lpt; k = 1 }) instance)
       instance realization)

(* --- The phase-2 replay of the catalog families --- *)

module Engine = Usched_desim.Engine

let same_schedule a b =
  Schedule.n a = Schedule.n b
  && List.for_all
       (fun j -> Schedule.entry a j = Schedule.entry b j)
       (List.init (Schedule.n a) Fun.id)

let start_order s =
  List.init (Schedule.n s) Fun.id
  |> List.sort (fun a b ->
         compare (Schedule.entry s a).Schedule.start (Schedule.entry s b).Schedule.start)

let lpt_phase2_is_engine_lpt () =
  let instance = instance_of ~m:3 ~alpha:2.0 [| 2.0; 7.0; 1.0; 4.0; 4.0; 3.0 |] in
  let realization = Realization.uniform_factor instance (Rng.create ~seed:4 ()) in
  let placement = Core.Placement.full ~m:3 ~n:6 in
  let direct =
    Engine.run instance realization ~placement:(Core.Placement.sets placement)
      ~order:(Instance.lpt_order instance)
  in
  checkb "LPT phase 2 = engine under the LPT order" true
    (same_schedule direct
       ((algo lpt_no_restriction instance).Core.Two_phase.phase2 instance
          placement realization))

let submission_phase2_follows_ids () =
  (* One machine holds everything: execution order is the priority
     order, so submission order runs tasks by id and LPT by estimate. *)
  let instance = instance_of ~m:2 [| 1.0; 5.0; 3.0; 2.0 |] in
  let realization = Realization.exact instance in
  let placement = Core.Placement.singletons ~m:2 [| 0; 0; 0; 0 |] in
  let replay spec =
    start_order
      ((algo spec instance).Core.Two_phase.phase2 instance placement realization)
  in
  Alcotest.(check (list int)) "by id" [ 0; 1; 2; 3 ] (replay ls_no_restriction);
  Alcotest.(check (list int)) "by estimate, longest first" [ 1; 2; 3; 0 ]
    (replay lpt_no_restriction)

let () =
  Alcotest.run "strategies"
    [
      ( "no replication",
        [
          Alcotest.test_case "placement is LPT" `Quick lpt_no_choice_placement_is_lpt;
          Alcotest.test_case "static under perturbation" `Quick
            lpt_no_choice_static_under_perturbation;
          Alcotest.test_case "alpha=1 is offline LPT" `Quick
            lpt_no_choice_exact_alpha_matches_offline_lpt;
        ] );
      ( "full replication",
        [
          Alcotest.test_case "adapts to reversals" `Quick lpt_no_restriction_adapts;
          Alcotest.test_case "LS online example" `Quick ls_no_restriction_is_graham;
          Alcotest.test_case "placement everywhere" `Quick full_replication_placement;
        ] );
      ( "groups",
        [
          Alcotest.test_case "divisible groups" `Quick machine_groups_divisible;
          Alcotest.test_case "uneven groups" `Quick machine_groups_uneven;
          Alcotest.test_case "bounds" `Quick machine_groups_bounds;
          Alcotest.test_case "balanced assignment" `Quick
            group_assignment_balances_groups;
          Alcotest.test_case "k=1 = full replication" `Quick
            ls_group_k1_equals_full_replication;
          Alcotest.test_case "k=m = singletons" `Quick ls_group_km_is_singleton;
          Alcotest.test_case "stays in groups" `Quick ls_group_respects_groups;
          Alcotest.test_case "LPT-Group order" `Quick lpt_group_uses_lpt_order;
        ] );
      ( "phase 2",
        [
          Alcotest.test_case "LPT phase 2 is the engine's" `Quick
            lpt_phase2_is_engine_lpt;
          Alcotest.test_case "submission order runs by id" `Quick
            submission_phase2_follows_ids;
        ] );
    ]
