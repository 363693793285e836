module Instance = Usched_model.Instance
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary

(* Crash machine 0 at the given time and run the dynamic engine: work in
   flight on the lost machine is killed and re-dispatched (LPT order) to
   surviving replica holders; tasks whose data lived only there strand. *)
let crash_at instance realization placement ~time =
  let m = Instance.m instance in
  let faults =
    Trace.of_events ~m [ { Fault.machine = 0; time; kind = Fault.Crash } ]
  in
  Engine.run_faulty instance realization ~faults
    ~placement:(Core.Placement.sets placement)
    ~order:(Instance.lpt_order instance)

let run config =
  Runner.print_section
    "Fault tolerance -- machine 0 fails before and during phase 2";
  let m = 6 and alpha = 1.5 and n = 30 in
  Printf.printf
    "m=%d machines, n=%d tasks, alpha=%g. After phase 1 commits, machine 0\n\
     fails (its data is lost) either before phase 2 starts, or mid-run at\n\
     50%% of the healthy makespan — killing its in-flight task, whose work\n\
     is re-dispatched to surviving replica holders.\n\n"
    m n alpha;
  let strategies =
    Strategy.
      [
        ("no replication", No_replication Lpt);
        ("LS-Group k=3 (2 replicas)", Group { order = Ls; k = 3 });
        ("Budgeted k=2", Budgeted 2);
        ("full replication", Full_replication Lpt);
      ]
  in
  let rows =
    List.map
      (fun (name, spec) ->
        let algo = Runner.strategy config ~m spec in
        let rng = Rng.create ~seed:config.Runner.seed () in
        let pre_start = Runner.fault_cell () in
        let mid_run = Runner.fault_cell () in
        let survives = ref true in
        for _ = 1 to Stdlib.max 10 config.Runner.reps do
          let instance, realization = Runner.generate ~n ~m ~alpha rng in
          let placement = algo.Core.Two_phase.phase1 instance in
          survives :=
            !survives && Core.Placement.survives_any_failure placement;
          let healthy =
            Schedule.makespan
              (algo.Core.Two_phase.phase2 instance placement realization)
          in
          (* Waste is reported in task-time units, not as a fraction. *)
          let record cell ~time =
            Runner.record_fault cell ~healthy ~total_work:1.0
              (crash_at instance realization placement ~time)
          in
          record pre_start ~time:0.0;
          record mid_run ~time:(0.5 *. healthy)
        done;
        (name, !survives, pre_start, mid_run))
      strategies
  in
  let done_column title cell =
    Runner.column title (fun r ->
        let c = cell r in
        Printf.sprintf "%d/%d" c.Runner.full_runs c.Runner.runs)
  in
  let pre (_, _, c, _) = c and mid (_, _, _, c) = c in
  let degradation cell r = (cell r).Runner.degradation in
  Runner.report config
    Runner.
      [
        text "strategy" (fun (name, _, _, _) -> name);
        text "survives any failure" (fun (_, survives, _, _) ->
            if survives then "yes" else "no");
        done_column "pre-start done" pre;
        mean_or_dash "pre-start degr" (degradation pre);
        done_column "mid-run done" mid;
        mean_or_dash "mid-run degr" (degradation mid);
        float "mid-run waste" (fun r -> Summary.mean (mid r).wasted);
      ]
    rows;
  Printf.printf
    "\nDegradation is C_max(after failure) / C_max(healthy); with m=%d\n\
     machines the work of the lost machine spreads over %d survivors, so\n\
     ~%.2f is the natural floor. A mid-run crash is strictly gentler than\n\
     losing the machine up front — everything it finished before dying\n\
     stands, only its in-flight task (the \"waste\" column, in task-time\n\
     units) is re-run — but completing at all still requires a surviving\n\
     replica (the paper's Hadoop motivation).\n"
    m (m - 1)
    (float_of_int m /. float_of_int (m - 1))
