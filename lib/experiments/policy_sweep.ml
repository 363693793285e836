(* policy-sweep: what the dispatch rule is worth, placement held fixed.
   The paper's engine hard-wires list-priority dispatch (the
   highest-priority eligible task); the layered desim core makes that
   rule a parameter. Part A replays paired healthy workloads under every
   built-in policy — once on a spread-prone uniform workload and once on
   an identical workload, where random tie-breaking actually has ties to
   break. Part B replays paired crash traces with online re-replication
   to check the policies' fault behavior: under full replication every
   work-conserving policy completes the same task set, so the question
   is degradation, not completion. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Core = Usched_core
module Summary = Usched_stats.Summary

let m = 6
let n = 36
let alpha = 1.5
let policies = List.map (fun p -> (Dispatch.name p, p)) Dispatch.builtin

(* ------------- part A: healthy makespan by dispatch rule ------------- *)

let healthy_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "A. Healthy replays: n=%d, m=%d, ring k=2 placement, LPT order. Every\n\
     policy replays the same paired workload per rep; ratios are against\n\
     the default list-priority rule on that same workload.\n\n"
    n m;
  let workloads =
    [
      ("uniform:1:10", Workload.Uniform { lo = 1.0; hi = 10.0 });
      ("identical:5", Workload.Identical 5.0);
    ]
  in
  let rows =
    List.concat_map
      (fun (wname, spec) ->
        let cells =
          List.map
            (fun (name, p) ->
              (wname, name, p, Summary.create (), Summary.create ()))
            policies
        in
        Runner.paired_reps config ~salt:7177 ~reps (fun rng ->
            let instance, realization =
              Runner.generate ~spec ~n ~m ~alpha rng
            in
            let order = Instance.lpt_order instance in
            let placement =
              Core.Placement.sets (Runner.ring_placement ~m ~n ~k:2)
            in
            let lb =
              Core.Lower_bounds.best ~m (Realization.actuals realization)
            in
            let base =
              Schedule.makespan
                (Engine.run ~dispatch:Dispatch.default instance realization
                   ~placement ~order)
            in
            List.iter
              (fun (_, _, dispatch, ratio, vs_lb) ->
                let mk =
                  Schedule.makespan
                    (Engine.run ~dispatch instance realization ~placement
                       ~order)
                in
                Summary.add ratio (mk /. base);
                Summary.add vs_lb (mk /. lb))
              cells);
        cells)
      workloads
  in
  let ratio_stat stat (_, _, _, ratio, _) = stat ratio in
  Runner.report config ~csv:"policy_sweep_healthy"
    Runner.
      [
        text ~csv:"workload" "workload" (fun (wname, _, _, _, _) -> wname);
        text ~csv:"policy" "policy" (fun (_, name, _, _, _) -> name);
        float ~csv:"mean_ratio" "mean ratio" (ratio_stat Summary.mean);
        float ~csv:"worst_ratio" "worst ratio" (ratio_stat Summary.max);
        float ~csv:"best_ratio" "best ratio" (ratio_stat Summary.min);
        float ~csv:"mean_vs_lb" "vs LB" (fun (_, _, _, _, vs_lb) ->
            Summary.mean vs_lb);
      ]
    rows;
  Printf.printf
    "\nOn the uniform workload estimates are almost surely distinct, so\n\
     random tie-breaking coincides with list-priority; on the identical\n\
     workload every eligible task ties and the rules genuinely diverge.\n"

(* ------------- part B: dispatch rules under crashes ------------------ *)

let faulty_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  let crash_rate = 0.4 in
  Printf.printf
    "\nB. Crash replays: same construction, crash rate %.2f (times uniform\n\
     in the healthy makespan), online re-replication back up to 2 live\n\
     replicas. Paired traces across policies.\n\n"
    crash_rate;
  let recovery = Recovery.make ~rereplication_target:(Recovery.Fixed 2) () in
  let cells =
    List.map (fun (name, p) -> (name, p, Runner.fault_cell ())) policies
  in
  Runner.paired_reps config ~salt:7178 ~reps (fun rng ->
      let instance, realization = Runner.generate ~n ~m ~alpha rng in
      let order = Instance.lpt_order instance in
      let total_work = Realization.total realization in
      let placement = Core.Placement.sets (Runner.ring_placement ~m ~n ~k:2) in
      let healthy =
        Schedule.makespan (Engine.run instance realization ~placement ~order)
      in
      let faults = Trace.random_crashes rng ~m ~p:crash_rate ~horizon:healthy in
      List.iter
        (fun (_, dispatch, cell) ->
          Runner.record_fault cell ~healthy ~total_work
            (Engine.run_faulty ~dispatch ~recovery instance realization ~faults
               ~placement ~order))
        cells);
  let cell (_, _, c) = c in
  Runner.report config ~csv:"policy_sweep_faulty"
    Runner.
      [
        text ~csv:"policy" "policy" (fun (name, _, _) -> name);
        stranded_runs cell;
        tasks_done cell;
        mean_degr cell;
        wasted cell;
      ]
    cells;
  Printf.printf
    "\nStranding is dominated by the data (which replicas survive the\n\
     trace), not the dispatch rule: under full replication every\n\
     work-conserving policy completes exactly the same task set (the\n\
     reachability property pinned in test_dispatch). At k=2 the rule\n\
     can still shift what is running when a disk dies; mostly it moves\n\
     degradation and wasted work.\n"

let run config =
  Runner.print_section
    "Policy sweep -- pluggable dispatch rules on fixed placements";
  healthy_sweep config;
  faulty_sweep config
