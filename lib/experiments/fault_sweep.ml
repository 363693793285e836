module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Trace = Usched_faults.Trace
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Summary = Usched_stats.Summary

let m = 6
let n = 36
let alpha = 1.5
let rates = [ 0.1; 0.25; 0.5 ]

(* Crash times are uniform in the k=1 ring's healthy makespan, so every
   cell of a repetition faces the same trace. *)
let crash_trace rng instance realization ~order ~rate =
  let horizon =
    Schedule.makespan
      (Engine.run instance realization
         ~placement:(Core.Placement.sets (Runner.ring_placement ~m ~n ~k:1))
         ~order)
  in
  Trace.random_crashes rng ~m ~p:rate ~horizon

let rate_column () =
  Runner.column "crash rate"
    ~csv:[ ("rate", fun (_, rate, _) -> Printf.sprintf "%.4f" rate) ]
    (fun (_, rate, _) -> Printf.sprintf "%.2f" rate)

let fault_columns () =
  let cell (_, _, c) = c in
  Runner.
    [
      tasks_done cell;
      full_runs cell;
      mean_degr cell;
      mean_or_dash ~stat:Summary.max "worst degr" (fun r ->
          (cell r).degradation);
      wasted cell;
    ]

(* ----------------- part A: replication degree sweep ----------------- *)

(* Nested rings make completion probability monotone in [k] by
   construction, which is what makes this table a clean sweep of the
   replication degree. *)
let degree_sweep config =
  let ks = [ 1; 2; 3; 6 ] in
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "A. Replication degree: n=%d tasks, m=%d machines, alpha=%g, nested\n\
     ring placements, LPT order, crash times uniform in the k=1 healthy\n\
     makespan. One crash trace per repetition, shared across every k.\n\n"
    n m alpha;
  let rows =
    List.concat
      (List.mapi
         (fun rate_idx rate ->
           let cells = List.map (fun k -> (k, rate, Runner.fault_cell ())) ks in
           Runner.paired_reps config ~salt:(7919 * rate_idx) ~reps (fun rng ->
               let instance, realization = Runner.generate ~n ~m ~alpha rng in
               let order = Instance.lpt_order instance in
               let total_work = Realization.total realization in
               let faults = crash_trace rng instance realization ~order ~rate in
               List.iter
                 (fun (k, _, cell) ->
                   let placement =
                     Core.Placement.sets (Runner.ring_placement ~m ~n ~k)
                   in
                   let healthy =
                     Schedule.makespan
                       (Engine.run instance realization ~placement ~order)
                   in
                   Runner.record_fault cell ~healthy ~total_work
                     (Engine.run_faulty instance realization ~faults ~placement
                        ~order))
                 cells);
           cells)
         rates)
  in
  Runner.report config ~csv:"fault_sweep_degree"
    (rate_column ()
    :: Runner.text ~align:Right ~csv:"k" "replicas k" (fun (k, _, _) ->
           string_of_int k)
    :: fault_columns ())
    rows;
  Printf.printf
    "\nCompletion climbs monotonically with k (nested rings: losing a task\n\
     at k+1 replicas implies losing it at k); degradation and wasted work\n\
     rise with the crash rate — killed work is re-run from scratch on a\n\
     surviving replica holder.\n"

(* ----------------- part B: the paper's strategies ------------------- *)

let strategy_specs =
  Strategy.
    [
      ("LPT-No Choice (k=1)", No_replication Lpt);
      ("LS-Group k=3 (2 repl)", Group { order = Ls; k = 3 });
      ("LS-Group k=2 (3 repl)", Group { order = Ls; k = 2 });
      ("Budgeted k=2", Budgeted 2);
      ("Budgeted k=3", Budgeted 3);
      ("LPT-No Restriction (k=m)", Full_replication Lpt);
    ]

let strategy_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "\nB. The paper's strategies under mid-run crashes (same workload and\n\
     crash trace for every strategy within a repetition; the faulty run\n\
     re-dispatches in LPT order).\n\n";
  let rows =
    List.concat_map
      (fun (name, spec) ->
        let algo = Runner.strategy config ~m spec in
        List.mapi
          (fun rate_idx rate ->
            let cell = Runner.fault_cell () in
            (* Identical streams per (rate, rep) across strategies: the
               instance, realization, and trace are all paired. *)
            Runner.paired_reps config ~salt:(7919 * rate_idx) ~reps (fun rng ->
                let instance, realization = Runner.generate ~n ~m ~alpha rng in
                let order = Instance.lpt_order instance in
                let total_work = Realization.total realization in
                let faults =
                  crash_trace rng instance realization ~order ~rate
                in
                let placement = algo.Core.Two_phase.phase1 instance in
                let healthy =
                  Schedule.makespan
                    (algo.Core.Two_phase.phase2 instance placement realization)
                in
                Runner.record_fault cell ~healthy ~total_work
                  (Engine.run_faulty instance realization ~faults
                     ~placement:(Core.Placement.sets placement)
                     ~order));
            (name, rate, cell))
          rates)
      strategy_specs
  in
  Runner.report config ~csv:"fault_sweep_strategies"
    (Runner.text ~csv:"strategy" "strategy" (fun (name, _, _) -> name)
    :: rate_column ()
    :: fault_columns ())
    rows

(* ----------------- part C: speculation vs stragglers ---------------- *)

let speculation_sweep config =
  let reps = Stdlib.max 10 config.Runner.reps in
  let beta = 1.5 in
  Printf.printf
    "\nC. Speculative re-execution vs stragglers: 30%% of machines slow to\n\
     a 0.2-0.5 speed factor mid-run; an idle replica holder may start a\n\
     backup once a copy runs past %.1fx its estimate (first copy to\n\
     finish wins). Replication is what makes speculation possible.\n\n"
    beta;
  let placements = [ ("ring k=2", 2); ("ring k=3", 3); ("full (k=6)", 6) ] in
  let rows =
    List.concat_map
      (fun (pname, k) ->
        List.map
          (fun speculation ->
            let slowdown = Summary.create () and waste = Summary.create () in
            Runner.paired_reps config ~salt:31337 ~reps (fun rng ->
                let instance, realization = Runner.generate ~n ~m ~alpha rng in
                let order = Instance.lpt_order instance in
                let placement =
                  Core.Placement.sets (Runner.ring_placement ~m ~n ~k)
                in
                let healthy =
                  Schedule.makespan
                    (Engine.run instance realization ~placement ~order)
                in
                let faults =
                  Trace.random_slowdowns rng ~m ~p:0.3 ~horizon:healthy
                    ~factor:(0.2, 0.5)
                in
                let outcome =
                  Engine.run_faulty ?speculation instance realization ~faults
                    ~placement ~order
                in
                Summary.add slowdown (outcome.Engine.makespan /. healthy);
                Summary.add waste
                  (outcome.Engine.wasted /. Realization.total realization));
            (pname, speculation, slowdown, waste))
          [ None; Some beta ])
      placements
  in
  Runner.report config
    Runner.
      [
        text "placement" (fun (pname, _, _, _) -> pname);
        text "speculation" (fun (_, speculation, _, _) ->
            match speculation with
            | None -> "off"
            | Some b -> Printf.sprintf "beta=%.1f" b);
        float "mean slowdown" (fun (_, _, s, _) -> Summary.mean s);
        float "worst slowdown" (fun (_, _, s, _) -> Summary.max s);
        percent "wasted" (fun (_, _, _, waste) -> Summary.mean waste);
      ]
    rows;
  Printf.printf
    "\nSpeculation trades duplicate work for response time, exactly the\n\
     replication-for-latency tradeoff of the queueing literature (Wang\n\
     et al.; Sun et al.): the slowdown drop is largest where replicas\n\
     are plentiful, and the wasted-work bill is the price of the race.\n"

let run config =
  Runner.print_section
    "Fault sweep -- mid-run crashes, re-dispatch, and speculation";
  degree_sweep config;
  strategy_sweep config;
  speculation_sweep config
