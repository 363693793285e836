(* Tests for the selective-replication extension. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let close = Alcotest.(check (float 1e-9))

let instance () =
  Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0)
    [| 10.0; 8.0; 1.0; 1.0; 1.0; 1.0; 6.0 |]

let replicates_largest_estimates () =
  let p = Core.Selective.placement ~count:2 (instance ()) in
  (* The two largest estimates are tasks 0 and 1. *)
  checki "task 0 everywhere" 3 (Core.Placement.replication p 0);
  checki "task 1 everywhere" 3 (Core.Placement.replication p 1);
  checki "task 6 pinned" 1 (Core.Placement.replication p 6);
  checki "task 2 pinned" 1 (Core.Placement.replication p 2)

let count_clamped () =
  let p = Core.Selective.placement ~count:100 (instance ()) in
  checki "all replicated" 3 (Core.Placement.max_replication p);
  let p0 = Core.Selective.placement ~count:(-5) (instance ()) in
  checki "none replicated" 1 (Core.Placement.max_replication p0)

let zero_count_equals_lpt_no_choice () =
  let inst = instance () in
  let rng = Rng.create ~seed:1 () in
  let realization = Realization.uniform_factor inst rng in
  close "same makespan"
    (Core.Two_phase.makespan
       Core.Strategy.(build (No_replication Lpt) ~m:3)
       inst realization)
    (Core.Two_phase.makespan (Core.Strategy.build (Selective 0) ~m:3) inst realization)

let full_count_equals_no_restriction () =
  let inst = instance () in
  let rng = Rng.create ~seed:2 () in
  let realization = Realization.uniform_factor inst rng in
  close "same makespan"
    (Core.Two_phase.makespan
       Core.Strategy.(build (Full_replication Lpt) ~m:3)
       inst realization)
    (Core.Two_phase.makespan (Core.Strategy.build (Selective 7) ~m:3) inst realization)

let schedules_valid_at_every_count () =
  let inst = instance () in
  let rng = Rng.create ~seed:3 () in
  for count = 0 to 7 do
    let realization = Realization.extremes ~p_high:0.4 inst rng in
    let algo = Core.Strategy.build (Selective count) ~m:3 in
    let placement, schedule = Core.Two_phase.run_full algo inst realization in
    checkb
      (Printf.sprintf "count %d valid" count)
      true
      (Schedule.validate ~placement:(Core.Placement.sets placement) inst
         realization schedule
      = [])
  done

let memory_grows_with_count () =
  let inst = instance () in
  let mem count =
    Core.Placement.total_replicas (Core.Selective.placement ~count inst)
  in
  checkb "monotone replica count" true (mem 0 < mem 2 && mem 2 < mem 7)

let () =
  Alcotest.run "selective"
    [
      ( "unit",
        [
          Alcotest.test_case "replicates largest" `Quick replicates_largest_estimates;
          Alcotest.test_case "count clamped" `Quick count_clamped;
          Alcotest.test_case "count=0 = LPT-No Choice" `Quick
            zero_count_equals_lpt_no_choice;
          Alcotest.test_case "count=n = LPT-No Restriction" `Quick
            full_count_equals_no_restriction;
          Alcotest.test_case "valid schedules" `Quick schedules_valid_at_every_count;
          Alcotest.test_case "memory monotone" `Quick memory_grows_with_count;
        ] );
    ]
