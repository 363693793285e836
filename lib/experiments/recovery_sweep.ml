(* recovery-sweep: how much of the paper's replication-degree guarantee
   online healing buys back. Part A crashes machines under a fixed ring
   placement and sweeps the recovery policy (detection latency x
   transfer bandwidth, re-replication target 2) against the passive
   engine on paired traces. Part B isolates checkpoint/resume on
   outage-only traces over singleton placements, where its effect is
   pointwise (every machine runs its own queue, so banked progress can
   only help). *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Core = Usched_core
module Summary = Usched_stats.Summary

let m = 6
let n = 36
let alpha = 1.5
let crash_rate = 0.4

type cell = {
  name : string;
  recovery : Recovery.t;
  fault : Runner.fault_cell;
  stranded_tasks : Summary.t; (* stranded count per run *)
  rereplications : Summary.t; (* healer transfers completed per run *)
  resumes : Summary.t; (* checkpoint resumes per run *)
}

let cell (name, recovery) =
  {
    name;
    recovery;
    fault = Runner.fault_cell ();
    stranded_tasks = Summary.create ();
    rereplications = Summary.create ();
    resumes = Summary.create ();
  }

(* Replay every policy on one paired workload and trace per repetition:
   [faults_of rng ~healthy] draws the trace after the workload, against
   the healthy makespan of the ring-[k] placement. *)
let replay config ~salt ~k ~faults_of cells =
  let reps = Stdlib.max 10 config.Runner.reps in
  Runner.paired_reps config ~salt ~reps (fun rng ->
      let instance, realization = Runner.generate ~n ~m ~alpha rng in
      let order = Instance.lpt_order instance in
      let total_work = Realization.total realization in
      let placement = Core.Placement.sets (Runner.ring_placement ~m ~n ~k) in
      let healthy =
        Schedule.makespan (Engine.run instance realization ~placement ~order)
      in
      let faults = faults_of rng ~healthy in
      List.iter
        (fun cell ->
          let metrics = Metrics.create () in
          let outcome =
            Engine.run_faulty ~recovery:cell.recovery ~metrics instance
              realization ~faults ~placement ~order
          in
          Runner.record_fault cell.fault ~healthy ~total_work outcome;
          let count name =
            match Metrics.find outcome.Engine.metrics name with
            | Some (Metrics.Counter c) -> float_of_int c
            | _ -> 0.0
          in
          Summary.add cell.stranded_tasks
            (float_of_int (List.length outcome.Engine.stranded));
          Summary.add cell.rereplications (count "engine.rereplications");
          Summary.add cell.resumes (count "engine.checkpoint_resumes"))
        cells)

let policy_column = Runner.text ~csv:"policy" "policy" (fun c -> c.name)
let fault c = c.fault

(* ----------------- part A: healing vs crashes ----------------------- *)

let policies =
  ("passive (none)", Recovery.none)
  :: List.concat_map
       (fun lat ->
         List.map
           (fun (bw_name, bw) ->
             ( Printf.sprintf "heal r=2 lat=%g bw=%s" lat bw_name,
               Recovery.make ~detection_latency:lat ~rereplication_target:(Recovery.Fixed 2)
                 ~bandwidth:bw () ))
           [ ("inf", infinity); ("1", 1.0); ("0.05", 0.05) ])
       [ 0.0; 2.0; 8.0 ]

let healing_sweep config =
  Printf.printf
    "A. Online re-replication under crashes: n=%d, m=%d, ring k=2, crash\n\
     rate %.2f (times uniform in the healthy makespan), LPT order. Every\n\
     policy replays the same paired workload + crash trace per rep; the\n\
     healer copies data at the given bandwidth back up to 2 live\n\
     replicas, after the given detection latency.\n\n"
    n m crash_rate;
  let cells = List.map cell policies in
  replay config ~salt:4241 ~k:2 cells ~faults_of:(fun rng ~healthy ->
      Trace.random_crashes rng ~m ~p:crash_rate ~horizon:healthy);
  Runner.report config ~csv:"recovery_sweep_healing"
    Runner.
      [
        policy_column;
        stranded_runs fault;
        float ~csv:"mean_stranded" "mean lost" (fun c ->
            Summary.mean c.stranded_tasks);
        tasks_done fault;
        mean_degr fault;
        wasted fault;
        float ~csv:"rereplications" "transfers" (fun c ->
            Summary.mean c.rereplications);
      ]
    cells;
  (* The acceptance check of this experiment: healing strictly reduces
     the probability of losing a task on the paired traces. *)
  (match cells with
  | passive :: best :: _ ->
      let stranded c = c.fault.runs - c.fault.full_runs in
      Printf.printf
        "\nStranded-run probability: passive %d/%d -> %s %d/%d (%s).\n"
        (stranded passive) passive.fault.runs best.name (stranded best)
        best.fault.runs
        (if stranded best < stranded passive then "strict improvement"
         else "no improvement at these parameters")
  | _ -> ());
  Printf.printf
    "Lower bandwidth and higher detection latency hand the second crash a\n\
     longer window to beat the healer; wasted work includes the copies a\n\
     late detection kept dispatching to doomed machines.\n"

(* ----------------- part B: checkpoint/resume ------------------------ *)

let checkpoint_sweep config =
  let interval = 1.0 in
  Printf.printf
    "\nB. Checkpoint/resume on outage-only traces: singleton placements\n\
     (k=1, every machine owns its queue), outage rate 0.5 with durations\n\
     in [5, 10]. A checkpointed copy resumes from its last multiple of\n\
     %.1f work units when the machine rejoins; the passive engine\n\
     restarts from zero.\n\n"
    interval;
  let cells =
    List.map cell
      [
        ("restart (none)", Recovery.none);
        ( Printf.sprintf "checkpoint c=%.1f" interval,
          Recovery.make ~checkpoint_interval:interval () );
      ]
  in
  replay config ~salt:9631 ~k:1 cells ~faults_of:(fun rng ~healthy ->
      Trace.random_outages rng ~m ~p:0.5 ~horizon:healthy
        ~duration:(5.0, 10.0));
  let degradation c = c.fault.Runner.degradation in
  Runner.report config ~csv:"recovery_sweep_checkpoint"
    Runner.
      [
        policy_column;
        float ~csv:"mean_degradation" "mean degr" (fun c ->
            Summary.mean (degradation c));
        float ~csv:"worst_degradation" "worst degr" (fun c ->
            Summary.max (degradation c));
        wasted fault;
        float ~csv:"checkpoint_resumes" "resumes" (fun c ->
            Summary.mean c.resumes);
      ]
    cells;
  Printf.printf
    "\nWith singleton placements an outage stalls the only holder, so the\n\
     passive engine re-runs every killed unit of work; checkpointing\n\
     caps the loss per outage at one interval and never hurts (each\n\
     machine's queue shrinks pointwise).\n"

let run config =
  Runner.print_section
    "Recovery sweep -- detection latency, re-replication bandwidth, checkpoints";
  healing_sweep config;
  checkpoint_sweep config
