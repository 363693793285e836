(* Tests for the memory-aware model: Memory, Sbo, Sabo, Abo. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Four time-heavy/small-data tasks and four short/big-data tasks. *)
let mixed_instance ?(alpha = 1.3) () =
  Instance.of_ests ~m:4
    ~alpha:(Uncertainty.alpha alpha)
    ~sizes:[| 1.0; 1.0; 1.0; 1.0; 6.0; 6.0; 8.0; 8.0 |]
    [| 8.0; 7.0; 6.0; 5.0; 1.0; 1.0; 0.5; 0.5 |]

let memory_lower_bound_values () =
  close "average side" 4.0 (Core.Memory.lower_bound ~m:2 ~sizes:[| 3.0; 3.0; 2.0 |]);
  close "largest side" 9.0 (Core.Memory.lower_bound ~m:2 ~sizes:[| 9.0; 1.0 |])

let pi1_pi2_optimize_their_objective () =
  let instance = mixed_instance () in
  let pi1 = Core.Memory.pi1 instance in
  let pi2 = Core.Memory.pi2 instance in
  (* pi1 balances time better than pi2; pi2 balances memory better. *)
  let time_load assign =
    let loads = Array.make 4 0.0 in
    Array.iteri
      (fun j i -> loads.(i) <- loads.(i) +. Instance.est instance j)
      assign.Core.Assign.assignment;
    Array.fold_left Float.max 0.0 loads
  in
  let mem_load assign =
    let loads = Array.make 4 0.0 in
    Array.iteri
      (fun j i -> loads.(i) <- loads.(i) +. Instance.size instance j)
      assign.Core.Assign.assignment;
    Array.fold_left Float.max 0.0 loads
  in
  checkb "pi1 better on time" true (time_load pi1 <= time_load pi2);
  checkb "pi2 better on memory" true (mem_load pi2 <= mem_load pi1)

let sbo_split_classifies_extremes () =
  let instance = mixed_instance () in
  let split = Core.Sbo.split ~delta:1.0 instance in
  (* Big-estimate small-size tasks must land in S1, and vice versa. *)
  checkb "task 0 time-intensive" true split.Core.Sbo.time_intensive.(0);
  checkb "task 7 memory-intensive" false split.Core.Sbo.time_intensive.(7);
  Alcotest.(check (list int)) "s1 and s2 partition the tasks"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare (Core.Sbo.s1_tasks split @ Core.Sbo.s2_tasks split))

let sbo_delta_monotone () =
  (* Growing delta moves tasks from S1 to S2 (never the reverse). *)
  let instance = mixed_instance () in
  let small = Core.Sbo.split ~delta:0.1 instance in
  let large = Core.Sbo.split ~delta:10.0 instance in
  Array.iteri
    (fun j in_s1_small ->
      if not in_s1_small then
        checkb "once memory-bound, stays memory-bound as delta grows" false
          large.Core.Sbo.time_intensive.(j))
    small.Core.Sbo.time_intensive

let sbo_zero_sizes_all_time_intensive () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0)
      ~sizes:[| 0.0; 0.0 |] [| 1.0; 2.0 |]
  in
  let split = Core.Sbo.split ~delta:1.0 instance in
  checkb "all in S1" true (Array.for_all Fun.id split.Core.Sbo.time_intensive)

let sbo_rejects_bad_delta () =
  Alcotest.check_raises "delta 0" (Invalid_argument "Sbo.split: delta must be > 0")
    (fun () -> ignore (Core.Sbo.split ~delta:0.0 (mixed_instance ())))

let sabo_is_replica_free () =
  let p = Core.Sabo.placement ~delta:1.0 (mixed_instance ()) in
  checki "no replication" 1 (Core.Placement.max_replication p)

let sabo_schedule_valid () =
  let instance = mixed_instance () in
  let rng = Rng.create ~seed:3 () in
  let realization = Realization.uniform_factor instance rng in
  let algo = Core.Strategy.build (Sabo 1.0) ~m:(Instance.m instance) in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Alcotest.(check (list string)) "valid" []
    (List.map
       (Format.asprintf "%a" Helpers.pp_violation)
       (Schedule.validate ~placement:(Core.Placement.sets placement) instance
          realization schedule))

let sabo_within_guarantees () =
  let instance = mixed_instance () in
  let m = Instance.m instance in
  let alpha = Instance.alpha_value instance in
  let rho = Core.Guarantees.lpt_offline ~m in
  let rng = Rng.create ~seed:4 () in
  List.iter
    (fun delta ->
      for _ = 1 to 10 do
        let realization = Realization.uniform_factor instance rng in
        let algo = Core.Strategy.build (Sabo delta) ~m in
        let schedule = Core.Two_phase.run algo instance realization in
        let opt = Core.Opt.makespan ~m (Realization.actuals realization) in
        checkb "Th5 makespan" true
          (Schedule.makespan schedule
          <= (Core.Guarantees.sabo_makespan ~alpha ~delta ~rho1:rho *. opt) +. 1e-9);
        let mem = Core.Memory.of_placement instance (Core.Sabo.placement ~delta instance) in
        let mem_star = Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance) in
        checkb "Th6 memory" true
          (mem <= (Core.Guarantees.sabo_memory ~delta ~rho2:rho *. mem_star) +. 1e-9)
      done)
    [ 0.5; 1.0; 2.0 ]

let abo_replicates_s1_only () =
  let instance = mixed_instance () in
  let split = Core.Sbo.split ~delta:1.0 instance in
  let p = Core.Abo.placement ~delta:1.0 instance in
  Array.iteri
    (fun j in_s1 ->
      checki
        (Printf.sprintf "task %d replication" j)
        (if in_s1 then 4 else 1)
        (Core.Placement.replication p j))
    split.Core.Sbo.time_intensive

let abo_phase2_order_s2_first () =
  let instance = mixed_instance () in
  let split = Core.Sbo.split ~delta:1.0 instance in
  let order = Core.Abo.phase2_order split in
  let s2 = Core.Sbo.s2_tasks split in
  let prefix = Array.to_list (Array.sub order 0 (List.length s2)) in
  Alcotest.(check (list int)) "S2 tasks first" s2 prefix

let abo_schedule_valid () =
  let instance = mixed_instance () in
  let rng = Rng.create ~seed:5 () in
  let realization = Realization.log_uniform_factor instance rng in
  let algo = Core.Strategy.build (Abo 1.0) ~m:(Instance.m instance) in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Alcotest.(check (list string)) "valid" []
    (List.map
       (Format.asprintf "%a" Helpers.pp_violation)
       (Schedule.validate ~placement:(Core.Placement.sets placement) instance
          realization schedule))

let abo_within_guarantees () =
  let instance = mixed_instance () in
  let m = Instance.m instance in
  let alpha = Instance.alpha_value instance in
  let rho = Core.Guarantees.lpt_offline ~m in
  let rng = Rng.create ~seed:6 () in
  List.iter
    (fun delta ->
      for _ = 1 to 10 do
        let realization = Realization.uniform_factor instance rng in
        let algo = Core.Strategy.build (Abo delta) ~m in
        let schedule = Core.Two_phase.run algo instance realization in
        let opt = Core.Opt.makespan ~m (Realization.actuals realization) in
        checkb "Th7 makespan" true
          (Schedule.makespan schedule
          <= (Core.Guarantees.abo_makespan ~m ~alpha ~delta ~rho1:rho *. opt)
             +. 1e-9);
        let mem = Core.Memory.of_placement instance (Core.Abo.placement ~delta instance) in
        let mem_star = Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance) in
        checkb "Th8 memory" true
          (mem <= (Core.Guarantees.abo_memory ~m ~delta ~rho2:rho *. mem_star) +. 1e-9)
      done)
    [ 0.5; 1.0; 2.0 ]

let abo_uses_more_memory_than_sabo () =
  let instance = mixed_instance () in
  let sabo = Core.Memory.of_placement instance (Core.Sabo.placement ~delta:1.0 instance) in
  let abo = Core.Memory.of_placement instance (Core.Abo.placement ~delta:1.0 instance) in
  checkb "replication costs memory" true (abo >= sabo)

let () =
  Alcotest.run "memory"
    [
      ( "memory measures",
        [
          Alcotest.test_case "lower bound" `Quick memory_lower_bound_values;
          Alcotest.test_case "pi1/pi2 objectives" `Quick
            pi1_pi2_optimize_their_objective;
        ] );
      ( "sbo split",
        [
          Alcotest.test_case "classifies extremes" `Quick sbo_split_classifies_extremes;
          Alcotest.test_case "monotone in delta" `Quick sbo_delta_monotone;
          Alcotest.test_case "zero sizes" `Quick sbo_zero_sizes_all_time_intensive;
          Alcotest.test_case "rejects bad delta" `Quick sbo_rejects_bad_delta;
        ] );
      ( "sabo",
        [
          Alcotest.test_case "replica-free" `Quick sabo_is_replica_free;
          Alcotest.test_case "valid schedules" `Quick sabo_schedule_valid;
          Alcotest.test_case "within Th5/Th6" `Quick sabo_within_guarantees;
        ] );
      ( "abo",
        [
          Alcotest.test_case "replicates S1 only" `Quick abo_replicates_s1_only;
          Alcotest.test_case "S2 scheduled first" `Quick abo_phase2_order_s2_first;
          Alcotest.test_case "valid schedules" `Quick abo_schedule_valid;
          Alcotest.test_case "within Th7/Th8" `Quick abo_within_guarantees;
          Alcotest.test_case "memory ordering vs SABO" `Quick
            abo_uses_more_memory_than_sabo;
        ] );
    ]
