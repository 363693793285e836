(* stream: the open-system service mode swept over offered load. Batch
   experiments ask how fast a placement clears a fixed workload; here
   tasks keep arriving (Poisson, rate set by the target offered load
   rho = lambda * E[service] / m) and the question is what response
   times each placement strategy sustains — and where its stability
   frontier lies. Below saturation latency quantiles settle; past it
   (rho > 1) the queue grows without bound and per-task latency drifts
   upward over the admitted window, which the drift column makes
   visible: mean latency of the last-admitted half over the first half.
   Arrival sequences, workloads and realizations are paired across
   strategies within each load point, so columns differ only by
   placement. Speculation doubles as the replicate-on-straggler latency
   policy: past beta times a task's estimate an idle replica holder
   starts a backup, the first finisher wins, the loser's machine-time
   lands in wasted work. *)

module Realization = Usched_model.Realization
module Engine = Usched_desim.Engine
module Arrival = Usched_desim.Arrival
module Core = Usched_core
module Metrics = Usched_obs.Metrics
module Quantile = Usched_stats.Quantile
module Histogram = Usched_stats.Histogram
module Summary = Usched_stats.Summary

let m = 6
let n = 150
let alpha = 1.5
let loads = [ 0.6; 0.85; 1.1 ]
(* Actuals are log-uniform within a factor alpha = 1.5 of the estimate,
   so a beta of 2 would never fire; 1.2 marks genuine stragglers. *)
let spec_beta = 1.2
let drift_unstable = 1.5

type cell = {
  label : string;
  spec : Core.Strategy.t;
  speculation : float option;
}

let cells =
  [
    {
      label = "no-replication";
      spec = Core.Strategy.No_replication Core.Strategy.Ls;
      speculation = None;
    };
    {
      label = "ls-group:2";
      spec = Core.Strategy.Group { order = Core.Strategy.Ls; k = 2 };
      speculation = None;
    };
    {
      label = "full-replication";
      spec = Core.Strategy.Full_replication Core.Strategy.Ls;
      speculation = None;
    };
    {
      label = Printf.sprintf "full-repl+spec:%g" spec_beta;
      spec = Core.Strategy.Full_replication Core.Strategy.Ls;
      speculation = Some spec_beta;
    };
  ]

(* Mean latency of the second-admitted half over the first-admitted
   half. In a stable system both halves see the same stationary
   latency (ratio ~ 1); past saturation the backlog grows with every
   arrival and the ratio grows with n. *)
let drift latencies =
  let len = Array.length latencies in
  if len < 4 then 1.0
  else begin
    let half = len / 2 in
    let mean a b =
      let s = ref 0.0 in
      for i = a to b - 1 do
        s := !s +. latencies.(i)
      done;
      !s /. float_of_int (b - a)
    in
    let first = mean 0 half and second = mean half len in
    if first > 0.0 then second /. first else 1.0
  end

let utilization ~m realization (outcome : Engine.outcome) =
  let drain = outcome.Engine.makespan in
  if drain > 0.0 then begin
    let actuals = Realization.actuals realization in
    let work = ref outcome.Engine.wasted in
    Array.iteri
      (fun j fate ->
        match fate with
        | Engine.Finished _ -> work := !work +. actuals.(j)
        | Engine.Stranded -> ())
      outcome.Engine.fates;
    !work /. (float_of_int m *. drain)
  end
  else 0.0

type row = {
  rho : float;
  cell : cell;
  quantile : float -> float; (* of the pooled latencies *)
  util : Summary.t;
  waste : Summary.t;
  mean_drift : float;
  stable : bool;
}

let run config =
  Runner.print_section "Stream -- open-system latency under offered load";
  let reps = Stdlib.max 5 config.Runner.reps in
  Printf.printf
    "Poisson arrivals into n=%d tasks on m=%d machines (uniform:1:10,\n\
     alpha=%g), FCFS order, dispatch on arrival to an idle replica\n\
     holder. Offered load rho = lambda * E[actual] / m; the system\n\
     drains after the last admitted task. drift > %.1f marks a cell\n\
     past its stability frontier. %d reps per cell, paired across\n\
     strategies.\n\n"
    n m alpha drift_unstable reps;
  let unstable_cells = ref 0 in
  let mg name = Metrics.gauge config.Runner.metrics ("stream." ^ name) in
  let g_p50 = mg "p50_max"
  and g_p95 = mg "p95_max"
  and g_p99 = mg "p99_max"
  and g_util = mg "utilization_max" in
  let showcase = ref [||] in
  let rows =
    List.concat_map
      (fun rho ->
        let results =
          List.map
            (fun cell ->
              (cell, ref [], Summary.create (), Summary.create (),
               Summary.create ()))
            cells
        in
        Runner.paired_reps config ~salt:9091 ~reps (fun rng ->
            let instance, realization = Runner.generate ~n ~m ~alpha rng in
            let actuals = Realization.actuals realization in
            let mean_service =
              Array.fold_left ( +. ) 0.0 actuals /. float_of_int n
            in
            let rate = rho *. float_of_int m /. mean_service in
            let arrivals =
              Arrival.generate (Arrival.poisson ~rate) rng ~count:n
            in
            let order = Array.init n (fun j -> j) in
            let total_work = Array.fold_left ( +. ) 0.0 actuals in
            List.iter
              (fun (cell, pooled, util, drifts, waste) ->
                let algo = Runner.strategy config ~m cell.spec in
                let placement = algo.Core.Two_phase.phase1 instance in
                let so =
                  Engine.run_stream ?speculation:cell.speculation instance
                    realization ~arrivals
                    ~placement:(Core.Placement.sets placement)
                    ~order
                in
                let outcome = so.Engine.outcome in
                pooled := so.Engine.latencies :: !pooled;
                Summary.add drifts (drift so.Engine.latencies);
                Summary.add waste (outcome.Engine.wasted /. total_work);
                if outcome.Engine.makespan > 0.0 then
                  Summary.add util (utilization ~m realization outcome))
              results);
        List.map
          (fun (cell, pooled, util, drifts, waste) ->
            let latencies = Array.concat !pooled in
            Array.sort Float.compare latencies;
            let quantile p =
              if Array.length latencies = 0 then Float.nan
              else Quantile.quantile latencies ~q:p
            in
            let mean_drift = Summary.mean drifts in
            let stable = mean_drift <= drift_unstable in
            if not stable then incr unstable_cells;
            if stable then begin
              (* The frontier gauges summarize the settled cells only: an
                 unstable cell's quantiles measure the admitted window,
                 not a stationary latency. *)
              Metrics.record_max g_p50 (quantile 0.5);
              Metrics.record_max g_p95 (quantile 0.95);
              Metrics.record_max g_p99 (quantile 0.99)
            end;
            Metrics.record_max g_util (Summary.max util);
            if rho = 0.85 && cell.label = "full-replication" then
              showcase := latencies;
            { rho; cell; quantile; util; waste; mean_drift; stable })
          results)
      loads
  in
  Metrics.set
    (Metrics.gauge config.Runner.metrics "stream.unstable_cells")
    (float_of_int !unstable_cells);
  let q name p = Runner.float ~csv:name name (fun r -> r.quantile p) in
  Runner.report config ~csv:"stream"
    Runner.
      [
        text ~align:Right ~csv:"rho" "rho" (fun r ->
            Printf.sprintf "%.2f" r.rho);
        text ~csv:"strategy" "strategy" (fun r -> r.cell.label);
        q "p50" 0.5;
        q "p95" 0.95;
        q "p99" 0.99;
        float ~csv:"utilization" "util" (fun r -> Summary.mean r.util);
        percent ~csv:"wasted_fraction" "waste" (fun r -> Summary.mean r.waste);
        float ~csv:"drift" "drift" (fun r -> r.mean_drift);
        column ~align:Left
          ~csv:
            [ ("verdict", fun r -> if r.stable then "stable" else "unstable") ]
          "verdict"
          (fun r -> if r.stable then "stable" else "UNSTABLE");
      ]
    rows;
  if Array.length !showcase > 0 then begin
    Printf.printf
      "\nlatency distribution, full-replication at rho=0.85 (pooled over\n\
       %d reps):\n"
      reps;
    Format.printf "%a" Histogram.pp (Histogram.of_data ~bins:12 !showcase)
  end;
  Printf.printf
    "\nBelow saturation replication buys latency: any idle holder can\n\
     serve the newest arrival, so full replication beats singleton\n\
     placement on every quantile. Past rho = 1 no placement is stable --\n\
     the drift column shows every strategy crossing its frontier -- and\n\
     speculation trades wasted work for the tail, not for capacity.\n"
