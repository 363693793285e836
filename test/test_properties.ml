(* Cross-module property tests: every theorem of the paper is checked
   against the exact optimum on randomized small instances, and every
   schedule produced by any algorithm is structurally validated. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

(* One reproducible generator for (instance, realization) pairs:
   n in [1, 12], m in [1, 5], alpha in [1, 2.5], estimates in [0.1, 10],
   actual times drawn at the interval extremes (the worst-case shape used
   throughout the paper's proofs) or uniformly. *)
let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 1 5 in
    let* alpha = float_range 1.0 2.5 in
    let* ests = array_size (return n) (float_range 0.1 10.0) in
    let* sizes = array_size (return n) (float_range 0.1 5.0) in
    let* extreme = bool in
    let* seed = int_bound 1_000_000 in
    return (m, alpha, ests, sizes, extreme, seed))

let scenario_print (m, alpha, ests, sizes, extreme, seed) =
  Printf.sprintf "m=%d alpha=%.3f ests=[%s] sizes=[%s] extreme=%b seed=%d" m
    alpha
    (String.concat ";" (Array.to_list (Array.map string_of_float ests)))
    (String.concat ";" (Array.to_list (Array.map string_of_float sizes)))
    extreme seed

let scenario = QCheck.make ~print:scenario_print scenario_gen

let build (m, alpha, ests, sizes, extreme, seed) =
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ~sizes ests in
  let rng = Rng.create ~seed () in
  let realization =
    if extreme then Realization.extremes ~p_high:0.5 instance rng
    else Realization.uniform_factor instance rng
  in
  (instance, realization)

let opt_of instance realization =
  Core.Opt.makespan ~m:(Instance.m instance) (Realization.actuals realization)

let check_guarantee spec guarantee_of scenario_value =
  let instance, realization = build scenario_value in
  let algo = Core.Strategy.build spec ~m:(Instance.m instance) in
  let makespan = Core.Two_phase.makespan algo instance realization in
  let opt = opt_of instance realization in
  let bound = guarantee_of instance in
  makespan <= (bound *. opt) +. (1e-9 *. opt)

let prop_theorem2 =
  QCheck.Test.make ~name:"Theorem 2: LPT-No Choice within 2a2m/(2a2+m-1)"
    ~count:250 scenario
    (check_guarantee Core.Strategy.(No_replication Lpt) (fun instance ->
         Core.Guarantees.lpt_no_choice ~m:(Instance.m instance)
           ~alpha:(Instance.alpha_value instance)))

let prop_theorem3 =
  QCheck.Test.make
    ~name:"Theorem 3 + Graham: LPT-No Restriction within min(Th3, 2-1/m)"
    ~count:250 scenario
    (check_guarantee Core.Strategy.(Full_replication Lpt) (fun instance ->
         Core.Guarantees.full_replication ~m:(Instance.m instance)
           ~alpha:(Instance.alpha_value instance)))

let prop_graham_ls =
  QCheck.Test.make ~name:"Graham: LS-No Restriction within 2 - 1/m" ~count:250
    scenario
    (check_guarantee Core.Strategy.(Full_replication Ls) (fun instance ->
         Core.Guarantees.list_scheduling ~m:(Instance.m instance)))

let prop_theorem4 =
  QCheck.Test.make ~name:"Theorem 4: LS-Group within its guarantee (all k | m)"
    ~count:150 scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let m = Instance.m instance in
      let opt = opt_of instance realization in
      List.for_all
        (fun k ->
          if m mod k <> 0 then true
          else begin
            let algo = Core.Strategy.(build (Group { order = Ls; k }) ~m) in
            let makespan = Core.Two_phase.makespan algo instance realization in
            let bound =
              Core.Guarantees.ls_group ~m ~k
                ~alpha:(Instance.alpha_value instance)
            in
            makespan <= (bound *. opt) +. (1e-9 *. opt)
          end)
        [ 1; 2; 3; 4; 5 ])

let prop_every_schedule_validates =
  QCheck.Test.make ~name:"all algorithms produce structurally valid schedules"
    ~count:200 scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let m = Instance.m instance in
      let specs =
        Core.Strategy.
          [
            No_replication Lpt;
            No_replication Ls;
            Full_replication Lpt;
            Full_replication Ls;
            Group { order = Ls; k = Stdlib.max 1 (m / 2) };
            Sabo 1.0;
            Abo 1.0;
            Selective 2;
          ]
      in
      List.for_all
        (fun spec ->
          let algo = Core.Strategy.build spec ~m in
          let placement, schedule =
            Core.Two_phase.run_full algo instance realization
          in
          Schedule.validate ~placement:(Core.Placement.sets placement) instance
            realization schedule
          = [])
        specs)

let prop_makespan_never_below_opt =
  QCheck.Test.make ~name:"no algorithm beats the clairvoyant optimum" ~count:200
    scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let opt = opt_of instance realization in
      List.for_all
        (fun spec ->
          let algo = Core.Strategy.build spec ~m:(Instance.m instance) in
          Core.Two_phase.makespan algo instance realization >= opt -. (1e-9 *. opt))
        Core.Strategy.
          [ No_replication Lpt; Full_replication Lpt; Full_replication Ls ])

let prop_theorem1_adversary_bounded_by_theorem2 =
  (* The strongest adversary cannot push LPT-No Choice past its Theorem-2
     guarantee — exhaustive search over every extreme realization. *)
  QCheck.Test.make ~name:"exhaustive adversary stays below Theorem 2" ~count:25
    QCheck.(
      make ~print:(fun (m, lambda, alpha) ->
          Printf.sprintf "m=%d lambda=%d alpha=%.2f" m lambda alpha)
        Gen.(
          let* m = int_range 2 3 in
          let* lambda = int_range 1 3 in
          let* alpha = float_range 1.0 2.0 in
          return (m, lambda, alpha)))
    (fun (m, lambda, alpha) ->
      let instance =
        Instance.of_ests ~m
          ~alpha:(Uncertainty.alpha alpha)
          (Array.make (lambda * m) 1.0)
      in
      let algo = Core.Strategy.(build (No_replication Lpt) ~m) in
      let placement = algo.Core.Two_phase.phase1 instance in
      let run r = algo.Core.Two_phase.phase2 instance placement r in
      let opt actuals = Core.Opt.makespan ~m actuals in
      let _, worst = Core.Adversary.exhaustive ~run ~opt instance in
      worst <= Core.Guarantees.lpt_no_choice ~m ~alpha +. 1e-9)

let prop_lemma1_no_restriction =
  (* Lemma 1: if the machine that finishes last under LPT-No Restriction
     runs at least two tasks, then C* >= 2 p_l / alpha^2 where l is the
     task reaching C_max. *)
  QCheck.Test.make ~name:"Lemma 1: C* >= 2 p_l / alpha^2 when l shares a machine"
    ~count:250 scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let schedule =
        Core.Two_phase.run
          Core.Strategy.(build (Full_replication Lpt) ~m:(Instance.m instance))
          instance realization
      in
      (* The task reaching the makespan. *)
      let critical = ref (-1) in
      Array.iteri
        (fun j _ ->
          let e = Schedule.entry schedule j in
          if Float.abs (e.Schedule.finish -. Schedule.makespan schedule) < 1e-12
          then critical := j)
        (Instance.tasks instance);
      if !critical < 0 then true
      else begin
        let machine = Helpers.machine_of schedule !critical in
        let tasks_there =
          List.length (Helpers.machine_tasks schedule machine)
        in
        if tasks_there < 2 then true
        else begin
          let alpha = Instance.alpha_value instance in
          let p_l = Realization.actual realization !critical in
          opt_of instance realization >= (2.0 *. p_l /. (alpha *. alpha)) -. 1e-9
        end
      end)

let prop_equation2_lpt_structure =
  (* Equation 2 (inside Theorem 2's proof): under the LPT assignment on
     estimates, the estimated makespan satisfies
     C̃_max <= (Σ p̃ + (m-1) p̃_l) / m for the critical task l. *)
  QCheck.Test.make ~name:"Equation 2: LPT estimated makespan bound" ~count:250
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 20) (float_range 0.1 10.0)))
    (fun (m, ests) ->
      let ests = Array.of_list ests in
      let r = Core.Assign.lpt ~m ~weights:ests in
      let cmax = Core.Assign.makespan r in
      (* Critical task: last task (in LPT order) on a machine achieving
         the makespan; the proof only needs SOME task on that machine, so
         take the smallest estimate there. *)
      let machine =
        let best = ref 0 in
        Array.iteri (fun i load -> if load > r.Core.Assign.loads.(!best) then best := i)
          r.Core.Assign.loads;
        !best
      in
      let p_l = ref infinity in
      Array.iteri
        (fun j assigned_machine ->
          if assigned_machine = machine then p_l := Float.min !p_l ests.(j))
        r.Core.Assign.assignment;
      let total = Array.fold_left ( +. ) 0.0 ests in
      cmax <= ((total +. (float_of_int (m - 1) *. !p_l)) /. float_of_int m) +. 1e-9)

let prop_sabo_theorems =
  QCheck.Test.make ~name:"Theorems 5-6: SABO within both guarantees" ~count:150
    scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let m = Instance.m instance in
      let alpha = Instance.alpha_value instance in
      let rho = Core.Guarantees.lpt_offline ~m in
      let opt = opt_of instance realization in
      List.for_all
        (fun delta ->
          let algo = Core.Strategy.build (Sabo delta) ~m in
          let makespan = Core.Two_phase.makespan algo instance realization in
          let mem =
            Core.Memory.of_placement instance (Core.Sabo.placement ~delta instance)
          in
          let mem_star =
            Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance)
          in
          makespan
          <= (Core.Guarantees.sabo_makespan ~alpha ~delta ~rho1:rho *. opt)
             +. (1e-9 *. opt)
          && mem
             <= (Core.Guarantees.sabo_memory ~delta ~rho2:rho *. mem_star)
                +. (1e-9 *. mem_star))
        [ 0.5; 1.0; 2.0 ])

let prop_abo_theorems =
  QCheck.Test.make ~name:"Theorems 7-8: ABO within both guarantees" ~count:150
    scenario (fun scenario_value ->
      let instance, realization = build scenario_value in
      let m = Instance.m instance in
      let alpha = Instance.alpha_value instance in
      let rho = Core.Guarantees.lpt_offline ~m in
      let opt = opt_of instance realization in
      List.for_all
        (fun delta ->
          let algo = Core.Strategy.build (Abo delta) ~m in
          let makespan = Core.Two_phase.makespan algo instance realization in
          let mem =
            Core.Memory.of_placement instance (Core.Abo.placement ~delta instance)
          in
          let mem_star =
            Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance)
          in
          makespan
          <= (Core.Guarantees.abo_makespan ~m ~alpha ~delta ~rho1:rho *. opt)
             +. (1e-9 *. opt)
          && mem
             <= (Core.Guarantees.abo_memory ~m ~delta ~rho2:rho *. mem_star)
                +. (1e-9 *. mem_star))
        [ 0.5; 1.0; 2.0 ])

let prop_alpha_one_no_uncertainty_penalty =
  (* With alpha = 1 the online LPT pipeline behaves like offline LPT:
     within 4/3 - 1/3m of the optimum. *)
  QCheck.Test.make ~name:"alpha=1: LPT-No Choice meets the offline LPT bound"
    ~count:200
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_range 1 12) (float_range 0.1 10.0)))
    (fun (m, ests) ->
      let ests = Array.of_list ests in
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) ests in
      let realization = Realization.exact instance in
      let makespan =
        Core.Two_phase.makespan
          Core.Strategy.(build (No_replication Lpt) ~m)
          instance realization
      in
      let opt = Core.Opt.makespan ~m ests in
      makespan <= (Core.Guarantees.lpt_offline ~m *. opt) +. 1e-9)

let prop_time_scale_invariance =
  (* Uniform bias rescales every actual time by one factor; the engine's
     decisions are scale-free, so every algorithm's makespan must scale
     exactly — competitive ratios are bias-invariant. *)
  QCheck.Test.make ~name:"uniform bias rescales makespans exactly" ~count:150
    QCheck.(
      pair
        (pair (int_range 1 5) (float_range 1.1 2.5))
        (list_of_size Gen.(int_range 1 12) (float_range 0.1 10.0)))
    (fun ((m, alpha), ests) ->
      let ests = Array.of_list ests in
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ests in
      let factor = 0.5 *. ((1.0 /. alpha) +. alpha) in
      let biased = Realization.biased ~factor instance in
      let exact = Realization.exact instance in
      List.for_all
        (fun spec ->
          let algo = Core.Strategy.build spec ~m in
          let scaled = Core.Two_phase.makespan algo instance biased in
          let base = Core.Two_phase.makespan algo instance exact in
          Float.abs (scaled -. (factor *. base)) < 1e-9 *. Float.max 1.0 scaled)
        Core.Strategy.
          [
            No_replication Lpt;
            Full_replication Lpt;
            Full_replication Ls;
            Group { order = Ls; k = Stdlib.max 1 (m / 2) };
            Budgeted 2;
          ])

let prop_replication_never_hurts_worst_case =
  (* Group guarantee with k groups is at most the k'=m (singleton)
     guarantee when k <= k' — checking the formula's ordering against
     simulated behaviour is Figure 3's job; here we check the formulas. *)
  QCheck.Test.make ~name:"guarantee improves with replication (formula level)"
    ~count:200
    QCheck.(pair (int_range 1 6) (float_range 1.0 3.0))
    (fun (half, alpha) ->
      let m = 2 * half in
      Core.Guarantees.ls_group ~m ~k:1 ~alpha
      <= Core.Guarantees.ls_group ~m ~k:2 ~alpha +. 1e-9
      && Core.Guarantees.ls_group ~m ~k:2 ~alpha
         <= Core.Guarantees.ls_group ~m ~k:m ~alpha +. 1e-9)

let () =
  Alcotest.run "properties"
    [
      ( "replication bound theorems",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_theorem2;
            prop_theorem3;
            prop_graham_ls;
            prop_theorem4;
            prop_theorem1_adversary_bounded_by_theorem2;
            prop_lemma1_no_restriction;
            prop_equation2_lpt_structure;
          ] );
      ( "memory-aware theorems",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sabo_theorems; prop_abo_theorems ] );
      ( "structural",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_every_schedule_validates;
            prop_makespan_never_below_opt;
            prop_alpha_one_no_uncertainty_penalty;
            prop_time_scale_invariance;
            prop_replication_never_hurts_worst_case;
          ] );
    ]
