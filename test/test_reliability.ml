(* Reliability-targeted replication: unit solves with hand-checked
   bounds, feasibility edges, and the Monte-Carlo acceptance check —
   solver placements achieve P(no stranded task) >= target on several
   seeded failure profiles. *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Failure = Usched_model.Failure
module Core = Usched_core
module Reliability = Usched_core.Reliability
module Placement = Usched_core.Placement
module Rng = Usched_prng.Rng
module Sweep = Usched_experiments.Reliability_sweep

let close = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let instance_of ?failure ~m ests =
  Instance.of_ests ?failure ~m ~alpha:(Uncertainty.alpha 2.0) ests

(* --------------------------- unit solves ---------------------------- *)

let target_validated () =
  let instance = instance_of ~m:2 [| 1.0 |] in
  Alcotest.check_raises "target 1 rejected"
    (Invalid_argument "Reliability: target 1 must be in (0, 1)")
    (fun () -> ignore (Reliability.placement ~target:1.0 instance))

let sets_meet_their_budget () =
  (* Uniform p = 0.05, target 0.99 over 12 tasks: per-task loss budget is
     (1 - 0.99)/12 ~ 8.3e-4; 0.05^2 = 2.5e-3 is too lossy, 0.05^3 =
     1.25e-4 fits — every task must end with exactly 3 replicas. *)
  let n = 12 and m = 6 in
  let failure = Failure.uniform ~m ~p:0.05 in
  let instance = instance_of ~failure ~m (Array.make n 1.0) in
  let placement = Reliability.placement ~target:0.99 instance in
  let eps = (1.0 -. 0.99) /. float_of_int n in
  Array.iteri
    (fun j degree ->
      checki (Printf.sprintf "task %d degree" j) 3 degree;
      checkb
        (Printf.sprintf "task %d loss within budget" j)
        true
        (Failure.prob_all_lost failure (Placement.set placement j) <= eps))
    (Helpers.degrees placement);
  checkb "survival bound holds the target" true
    (Reliability.survival_bound instance placement >= 0.99)

let reliable_machines_mean_singletons () =
  let m = 4 in
  let failure = Failure.uniform ~m ~p:1e-6 in
  let instance = instance_of ~failure ~m [| 3.0; 2.0; 1.0; 5.0; 4.0 |] in
  let placement = Reliability.placement ~target:0.999 instance in
  Array.iter (fun d -> checki "singleton" 1 d) (Helpers.degrees placement)

let degrees_follow_the_profile () =
  (* Tiered profile: the solver prefers the reliable tier for replicas,
     and flakier profiles need strictly more copies in total. *)
  let m = 6 and n = 10 in
  let flaky = Failure.uniform ~m ~p:0.3 in
  let calm = Failure.uniform ~m ~p:0.01 in
  let total profile =
    let instance = instance_of ~failure:profile ~m (Array.make n 1.0) in
    Array.fold_left ( + ) 0
      (Helpers.degrees (Reliability.placement ~target:0.99 instance))
  in
  checkb "flaky needs more replicas than calm" true (total flaky > total calm)

let budget_is_respected () =
  let n = 12 and m = 4 in
  let failure = Failure.uniform ~m ~p:0.1 in
  let instance = instance_of ~failure ~m (Array.make n 1.0) in
  (* Target 0.9 over 12 unit tasks allots each task 8.3e-3; 0.1^2 = 0.01
     is too lossy, 0.1^3 = 1e-3 fits, so 3 replicas per task = 36 slots
     over 4 machines. A budget of 10 leaves the greedy one unit of
     packing slack per machine (it balances by memory but breaks ties by
     id, so a perfectly tight 9 is not packable); the solve must never
     exceed the cap on any machine. *)
  let placement = Reliability.placement ~budget:10.0 ~target:0.9 instance in
  checkb "memory cap held" true
    (Placement.memory_max placement ~sizes:(Instance.sizes instance)
    <= 10.0 +. 1e-9);
  checkb "the cap binds below full replication" true
    (Array.for_all (fun d -> d = 3) (Helpers.degrees placement));
  checkb "survival bound still holds" true
    (Reliability.survival_bound instance placement >= 0.9)

let infeasible_budget () =
  let n = 12 and m = 4 in
  let failure = Failure.uniform ~m ~p:0.1 in
  let instance = instance_of ~failure ~m (Array.make n 1.0) in
  (* 8 slots per machine = 32 < the 36 replicas the target needs. *)
  checkb "tight budget raises Infeasible" true
    (match Reliability.placement ~budget:8.0 ~target:0.9 instance with
    | exception Reliability.Infeasible _ -> true
    | _ -> false)

let infeasible_target () =
  (* Even replicating everywhere, P(all lost) = 0.9^2 = 0.81 per task,
     far above the per-task budget — no placement can meet the target. *)
  let failure = Failure.uniform ~m:2 ~p:0.9 in
  let instance = instance_of ~failure ~m:2 (Array.make 5 1.0) in
  checkb "unreachable target raises Infeasible" true
    (match Reliability.placement ~target:0.9999 instance with
    | exception Reliability.Infeasible _ -> true
    | _ -> false)

let invalid_target () =
  List.iter
    (fun target ->
      checkb
        (Printf.sprintf "target %g rejected" target)
        true
        (match
           Reliability.placement ~target
             (instance_of ~m:2 [| 1.0; 2.0 |])
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0.0; 1.0; -0.5; 2.0; Float.nan ]

let default_profile_used () =
  (* No profile attached: the solver sizes against the documented
     uniform default, so the solve still succeeds and meets its target
     under [failure_or_default]. *)
  let n = 8 in
  let instance = instance_of ~m:5 (Array.init n (fun j -> float_of_int (j + 1))) in
  let placement = Reliability.placement ~target:0.99 instance in
  checkb "bound from the default profile" true
    (Reliability.survival_bound instance placement >= 0.99)

let analytic_bounds () =
  (* Hand-checked union bound: three singleton tasks on machine 0 with
     p0 = 0.1 strand together with probability 0.1 each. *)
  let failure = Failure.make [| 0.1; 0.2 |] in
  let instance = instance_of ~failure ~m:2 (Array.make 3 1.0) in
  let placement =
    Placement.of_sets ~m:2 (Array.make 3 (Bitset.singleton 2 0))
  in
  close "survival bound" 0.7 (Reliability.survival_bound instance placement);
  let hopeless =
    Placement.of_sets ~m:2
      (Array.make 20 (Bitset.singleton 2 1))
  in
  close "survival bound clamps at 0" 0.0
    (Reliability.survival_bound instance hopeless)

let algorithm_names () =
  Alcotest.(check string)
    "unbudgeted" "Reliability(target=0.999)"
    (Core.Strategy.build (Reliability { target = 0.999; budget = None }) ~m:2)
      .Core.Two_phase.name;
  Alcotest.(check string)
    "budgeted" "Reliability(target=0.99, B=16)"
    (Core.Strategy.build (Reliability { target = 0.99; budget = Some 16.0 }) ~m:2)
      .Core.Two_phase.name

(* ------------------- Monte-Carlo acceptance check ------------------- *)

(* The PR's headline guarantee, checked end to end on three seeded
   profiles: solve at the target, then estimate P(no stranded task) by
   Monte-Carlo over profile-driven crash traces. The solver's union
   bound is conservative, so the point estimate should sit at or above
   the target; we accept when the target lies at or below the upper end
   of the 95% bootstrap interval (~2 sigma). *)
let monte_carlo_meets_target () =
  let m = 8 and n = 30 in
  let profiles =
    [
      ("uniform", Failure.uniform ~m ~p:0.05);
      ( "tiered",
        Failure.make
          (Array.init m (fun i -> if i < m / 2 then 0.01 else 0.2)) );
      ( "random",
        Failure.make
          (let rng = Rng.create ~seed:991 () in
           Array.init m (fun _ -> Rng.float_range rng ~lo:0.01 ~hi:0.3)) );
    ]
  in
  List.iteri
    (fun pidx (pname, profile) ->
      List.iter
        (fun target ->
          let rng = Rng.create ~seed:(42 + pidx) () in
          let instance =
            Instance.with_failure
              (Workload.generate
                 (Workload.Uniform { lo = 1.0; hi = 10.0 })
                 ~n ~m
                 ~alpha:(Uncertainty.alpha 1.5)
                 rng)
              (Some profile)
          in
          let placement = Reliability.placement ~target instance in
          checkb
            (Printf.sprintf "%s: analytic bound >= %g" pname target)
            true
            (Reliability.survival_bound instance placement >= target);
          let sv =
            Sweep.monte_carlo_survival ~trials:2000 ~seed:(7 * (pidx + 1))
              ~profile placement
          in
          checkb
            (Printf.sprintf "%s: MC survival %.4f (CI hi %.4f) meets %g"
               pname sv.Sweep.point sv.Sweep.hi target)
            true
            (sv.Sweep.hi >= target))
        [ 0.9; 0.99 ])
    profiles

let mc_survival_extremes () =
  let m = 3 in
  let certain_loss = Failure.uniform ~m ~p:1.0 in
  let never = Failure.uniform ~m ~p:0.0 in
  let singletons = Placement.of_sets ~m (Array.make 4 (Bitset.singleton m 0)) in
  let sv dead profile =
    (Sweep.monte_carlo_survival ~trials:100 ~seed:5 ~profile dead).Sweep.point
  in
  close "p=1 profile strands everything" 0.0 (sv singletons certain_loss);
  close "p=0 profile strands nothing" 1.0 (sv singletons never)

(* The survival estimate checks only the distinct replica sets; an
   oracle that checks every task's set, with the same trial generators
   and bootstrap, must agree bit for bit. *)
let all_sets_oracle ~trials ~seed ~profile placement =
  let sets = Helpers.task_sets (Placement.sets placement) in
  let m = Failure.m profile in
  let rng = Rng.create ~seed () in
  let trial_rngs = Array.init trials (fun _ -> Rng.split rng) in
  let data =
    Array.map
      (fun r ->
        let crashed = Bitset.create m in
        List.iter (Bitset.add crashed)
          (Usched_faults.Trace.crashed
             (Usched_faults.Trace.profile_crashes r ~profile ~horizon:1.0));
        if Array.exists (fun s -> Bitset.subset s crashed) sets then 0.0 else 1.0)
      trial_rngs
  in
  let iv = Usched_stats.Bootstrap.mean_interval ~rng data in
  (iv.Usched_stats.Bootstrap.point, iv.lo, iv.hi)

let prop_distinct_sets_survival =
  QCheck.Test.make ~count:100
    ~name:"survival over distinct sets = survival over every task's set"
    QCheck.(triple (int_range 1 40) (int_range 1 6) (int_bound 1_000_000))
    (fun (n, m, seed) ->
      let rng = Rng.create ~seed () in
      let profile =
        Failure.make (Array.init m (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:0.6))
      in
      let random_set () =
        let set = Bitset.create m in
        for i = 0 to m - 1 do
          if Rng.float rng < 0.4 then Bitset.add set i
        done;
        if Bitset.is_empty set then Bitset.add set (Rng.int rng m);
        set
      in
      let shared = Array.init (1 + Rng.int rng 4) (fun _ -> random_set ()) in
      let placement =
        Placement.of_sets ~m
          (Array.init n (fun _ ->
               if seed mod 2 = 0 then shared.(Rng.int rng (Array.length shared))
               else random_set ()))
      in
      let sv = Sweep.monte_carlo_survival ~trials:300 ~seed ~profile placement in
      (sv.Sweep.point, sv.Sweep.lo, sv.Sweep.hi)
      = all_sets_oracle ~trials:300 ~seed ~profile placement)

let () =
  Alcotest.run "reliability"
    [
      ( "solver",
        [
          Alcotest.test_case "target validated" `Quick target_validated;
          Alcotest.test_case "sets meet their loss budget" `Quick
            sets_meet_their_budget;
          Alcotest.test_case "reliable machines mean singletons" `Quick
            reliable_machines_mean_singletons;
          Alcotest.test_case "degrees follow the profile" `Quick
            degrees_follow_the_profile;
          Alcotest.test_case "memory budget respected" `Quick budget_is_respected;
          Alcotest.test_case "infeasible budget" `Quick infeasible_budget;
          Alcotest.test_case "infeasible target" `Quick infeasible_target;
          Alcotest.test_case "invalid targets rejected" `Quick invalid_target;
          Alcotest.test_case "default profile when none attached" `Quick
            default_profile_used;
          Alcotest.test_case "analytic bounds" `Quick analytic_bounds;
          Alcotest.test_case "algorithm names" `Quick algorithm_names;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "solver placements meet the target" `Slow
            monte_carlo_meets_target;
          Alcotest.test_case "survival extremes" `Quick mc_survival_extremes;
          QCheck_alcotest.to_alcotest prop_distinct_sets_survival;
        ] );
    ]
