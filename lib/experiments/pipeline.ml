module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Speed_band = Usched_model.Speed_band
module Topology = Usched_model.Topology
module Core = Usched_core
module Placement = Usched_core.Placement
module Strategy = Usched_core.Strategy
module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Dispatch = Usched_desim.Dispatch
module Arrival = Usched_desim.Arrival
module Recovery = Usched_faults.Recovery
module Faults = Usched_faults.Trace
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace
module Json = Usched_report.Json
module Rng = Usched_prng.Rng

type options = {
  algo : Strategy.t;
  seed : int;
  gantt : bool;
  fail_rate : float;
  speculate : float option;
  recover : Recovery.target;
  detect_latency : float;
  bandwidth : float;
  checkpoint : float;
  target_reliability : float option;
  speeds : float array option;
  speed_band : string option;
  topology : string option;
  policy : Dispatch.spec;
  stream : bool;
  arrival : Arrival.t;
  trace : string option;
}

let default =
  {
    algo = Strategy.(Full_replication Lpt);
    seed = 42;
    gantt = false;
    fail_rate = 0.0;
    speculate = None;
    recover = Recovery.Fixed 0;
    detect_latency = 0.0;
    bandwidth = infinity;
    checkpoint = 0.0;
    target_reliability = None;
    speeds = None;
    speed_band = None;
    topology = None;
    policy = Dispatch.default;
    stream = false;
    arrival = Arrival.poisson ~rate:1.0;
    trace = None;
  }

let ( let* ) = Result.bind
let flag name = Result.map_error (Printf.sprintf "%s: %s" name)
let floats a =
  String.concat "; " (List.map (Printf.sprintf "%g") (Array.to_list a))

let json_floats a = Json.List (List.map Json.float (Array.to_list a))

(* ------------------------------ inputs ------------------------------ *)

(* The numeric flags' ranges; NaN fails every test. An infinite
   bandwidth (instant copies) or beta (no speculation) is allowed. *)
let check_ranges o =
  let need name ok expect v =
    if ok v then Ok ()
    else Error (Printf.sprintf "%s: must be %s (got %g)" name expect v)
  in
  let each f = Option.fold ~none:(Ok ()) ~some:f in
  let pos x = x > 0.0 and finite_nonneg x = Float.is_finite x && x >= 0.0 in
  let* () =
    need "--fail-rate" (fun p -> p >= 0.0 && p <= 1.0) "in [0, 1]" o.fail_rate
  in
  let* () = each (need "--speculate" pos "> 0") o.speculate in
  let* () =
    need "--detect-latency" finite_nonneg "finite and >= 0" o.detect_latency
  in
  let* () = need "--bandwidth" pos "> 0" o.bandwidth in
  let* () = need "--checkpoint" finite_nonneg "finite and >= 0" o.checkpoint in
  let* () =
    each (need "--target-reliability" (fun t -> t > 0.0 && t < 1.0) "in (0, 1)")
      o.target_reliability
  in
  each
    (fun a ->
      if Array.for_all (fun s -> Float.is_finite s && s > 0.0) a then Ok ()
      else Error "--speeds: every speed must be finite and > 0")
    o.speeds

let recovery_of o =
  if
    o.recover = Recovery.Fixed 0
    && o.detect_latency = 0.0 && o.bandwidth = infinity && o.checkpoint = 0.0
  then Ok Recovery.none
  else
    match
      Recovery.make ~detection_latency:o.detect_latency
        ~rereplication_target:o.recover ~bandwidth:o.bandwidth
        ~checkpoint_interval:o.checkpoint ()
    with
    | r -> Ok r
    | exception Invalid_argument msg -> Error msg

(* A flag's spec replaces what the instance header carries, before
   phase 1 reads the instance. *)
let override name of_spec with_ instance = function
  | None -> Ok instance
  | Some spec ->
      let* v = flag name (of_spec ~m:(Instance.m instance) spec) in
      Ok (with_ instance (Some v))

let read file =
  match Usched_model.Io.load_instance ~path:file with
  | instance -> Ok instance
  | exception Failure msg -> Error (Printf.sprintf "%s: %s" file msg)
  | exception Sys_error msg -> Error msg

let prepare o instance =
  let m = Instance.m instance in
  let* () =
    match o.speeds with
    | Some a when Array.length a <> m ->
        Error
          (Printf.sprintf "--speeds lists %d speeds for %d machines"
             (Array.length a) m)
    | _ -> Ok ()
  in
  let* instance =
    override "--speed-band" Speed_band.of_spec Instance.with_speed_band
      instance o.speed_band
  in
  override "--topology" Topology.of_spec Instance.with_topology instance
    o.topology

(* The stream's arrivals, drawn from [rng] right after the realization
   as the stream replay would, but before anything is printed. A trace
   must hold one instant per task. *)
let arrivals o rng ~n =
  match o.arrival with
  | _ when not o.stream -> Ok [||]
  | Arrival.Trace times when Array.length times < n ->
      Error
        (Printf.sprintf "--arrival: trace holds %d arrivals, instance has %d tasks"
           (Array.length times) n)
  | arrival -> Ok (Arrival.generate arrival rng ~count:n)

(* ------------------------------ stages ------------------------------ *)

(* What every stage after placement reads. [rng] has drawn the
   realization (and the arrivals, when streaming); the faulty and
   stream replays draw their crashes from it next. *)
type ctx = {
  o : options;
  instance : Instance.t;
  m : int;
  n : int;
  recovery : Recovery.t;
  rng : Rng.t;
  realization : Realization.t;
  placement : Placement.t;
  sink : Sink.t option;
}

let emit c json = Option.iter (fun s -> Sink.emit s json) c.sink
let tracing c = Option.is_some c.sink

let phase c name =
  emit c (Json.Obj [ ("type", Json.String "phase"); ("name", Json.String name) ])

let metrics_record phase metrics =
  Json.Obj
    [
      ("type", Json.String "metrics");
      ("phase", Json.String phase);
      ("metrics", Metrics.to_json (Metrics.snapshot metrics));
    ]

let summary phase fields =
  Json.Obj
    (("type", Json.String "summary") :: ("phase", Json.String phase) :: fields)

let lpt_replay ?speeds ?metrics ?sink ~dispatch c =
  Engine.run ?speeds ~dispatch ?metrics ?sink c.instance c.realization
    ~placement:(Placement.sets c.placement)
    ~order:(Instance.lpt_order c.instance)

let meta c ~file ~algo ~replication_cost =
  let o = c.o and r = c.recovery in
  let opt f = function None -> Json.Null | Some v -> f v in
  let topo = Instance.topology c.instance
  and band = Instance.speed_band c.instance in
  Json.Obj
    [
      ("type", Json.String "meta");
      ("tool", Json.String "usched solve");
      ("file", Json.String file);
      ("algo", Json.String algo.Core.Two_phase.name);
      ("algo_spec", Json.String (Strategy.to_string o.algo));
      ("seed", Json.Int o.seed);
      ("n", Json.Int c.n);
      ("m", Json.Int c.m);
      ("fail_rate", Json.float o.fail_rate);
      ("speeds", opt json_floats o.speeds);
      ("speed_band", opt (fun b -> Json.String (Speed_band.to_string b)) band);
      ("topology", opt (fun t -> Json.String (Topology.to_string t)) topo);
      ("topology_zones", opt (fun t -> Json.Int (Topology.zones t)) topo);
      ("replication_cost", Json.float replication_cost);
      ("policy", Json.String (Dispatch.name o.policy));
      ("stream", Json.Bool o.stream);
      ( "arrival",
        if o.stream then Json.String (Arrival.describe o.arrival) else Json.Null );
      ("speculate", opt Json.float o.speculate);
      ( "recovery",
        if Recovery.is_none r then Json.Null
        else
          Json.Obj
            [
              ("detection_latency", Json.float r.detection_latency);
              ( "rereplication_target",
                match r.rereplication_target with
                | Recovery.Fixed k -> Json.Int k
                | Recovery.Degree -> Json.String "degree" );
              (* [Json.float infinity] is [Null]: JSON has no inf. *)
              ("bandwidth", Json.float r.bandwidth);
              ("checkpoint_interval", Json.float r.checkpoint_interval);
            ] );
    ]

(* Phase 1 and the algorithm's own phase-2 schedule: the meta record,
   the C_max and memory lines, the Gantt chart and machine table. *)
let report_placement c ~file ~algo ~schedule ~healthy ~lb =
  let sizes = Instance.sizes c.instance in
  let replication_cost =
    Placement.replication_cost c.placement
      ~topology:(Instance.topology_or_uniform c.instance) ~sizes
  in
  emit c (meta c ~file ~algo ~replication_cost);
  Printf.printf
    "%s on %s: C_max = %.4f (lower bound %.4f, ratio <= %.4f)\n\
     replicas/task max %d, Mem_max %.4f\n"
    algo.name file healthy lb (healthy /. lb)
    (Placement.max_replication c.placement)
    (Placement.memory_max c.placement ~sizes);
  Option.iter
    (fun t ->
      Printf.printf "topology: %d zones, replication transfer cost %.4f\n"
        (Topology.zones t) replication_cost)
    (Instance.topology c.instance);
  if c.o.gantt then print_string (Usched_desim.Gantt.render schedule);
  print_string (Usched_desim.Timeline.render_stats schedule)

(* The one LPT-order replay of the placement under the run's speeds and
   policy: the speeds line, the policy line and the trace's healthy phase
   all read it. Its records belong in the healthy phase, after the ones
   written before it, so a replay that a speeds or policy line forces
   first holds them in a memory sink until [trace_healthy] copies them
   over. Metrics are write-only: tracing changes nothing but the log. *)
let healthy_replay c ~sink =
  let metrics =
    if Option.is_some sink then Metrics.create () else Metrics.disabled
  in
  let schedule =
    lpt_replay ?speeds:c.o.speeds ~metrics ?sink ~dispatch:c.o.policy c
  in
  (Schedule.makespan schedule, metrics)

let report_speeds c replay speeds =
  let makespan, _ = Lazy.force replay in
  let slb = Core.Uniform.lower_bound ~speeds (Realization.actuals c.realization) in
  Printf.printf
    "machine speeds [%s]: replay C_max = %.4f (LB at speeds %.4f, ratio <= \
     %.4f)\n"
    (floats speeds) makespan slb (makespan /. slb)

(* Same placement, same LPT order, only the dispatch rule differs — the
   ratio isolates the policy from the algorithm's own ordering. *)
let report_policy c replay =
  let makespan, _ = Lazy.force replay in
  let default = lpt_replay ?speeds:c.o.speeds ~dispatch:Dispatch.default c in
  Printf.printf "dispatch policy %s: replay C_max = %.4f (%.4fx default)\n"
    (Dispatch.name c.o.policy) makespan
    (makespan /. Schedule.makespan default)

(* The healthy phase of the trace: the replay's records go straight into
   [sink], or come from [held] when a speeds or policy line ran it. *)
let trace_healthy c sink ~held replay ~lb =
  phase c "healthy";
  let makespan, metrics =
    if Lazy.is_val replay then begin
      Sink.append sink ~from:held;
      Lazy.force replay
    end
    else healthy_replay c ~sink:(Some sink)
  in
  emit c (metrics_record "healthy" metrics);
  emit c
    (summary "healthy"
       [ ("makespan", Json.float makespan); ("lower_bound", Json.float lb) ])

let survival c target =
  let sv =
    Reliability_sweep.monte_carlo_survival
      ~domains:(Usched_parallel.Pool.recommended_domains ())
      ~seed:c.o.seed
      ~profile:(Instance.failure_or_default c.instance)
      c.placement
  in
  let bound = Core.Reliability.survival_bound c.instance c.placement in
  let status =
    if bound >= target then "MET (analytic bound)"
    else if sv.lo >= target then "MET (empirically)"
    else "MISSED"
  in
  Printf.printf
    "survival: P(no stranded task) ~ %.4f (95%%CI [%.4f, %.4f], %d trials), \
     analytic bound %.4f, target %g: %s\n"
    sv.point sv.lo sv.hi sv.trials bound target status;
  emit c
    (summary "survival"
       [
         ("target", Json.float target);
         ("survival_mc", Json.float sv.point);
         ("survival_lo", Json.float sv.lo);
         ("survival_hi", Json.float sv.hi);
         ("trials", Json.Int sv.trials);
         ("survival_bound", Json.float bound);
         ("met", Json.Bool (status <> "MISSED"));
       ])

(* Speed robustness of the committed placement: the adversary picks the
   worst in-band revelation of machine speeds, with the Monte-Carlo
   draws folded into its candidate set (so the adversarial ratio
   dominates every sampled one by construction); then the same
   adversarial revelation is replayed mid-run through the fault layer —
   machines start at their optimistic speeds and Slowdown events
   re-predict in-flight work. *)
let speed_robustness c band =
  let mc_draws = 32 in
  let mc_rng = Rng.create ~seed:(c.o.seed + 1) () in
  let draws =
    Array.init mc_draws (fun _ -> Speed_band.sample band (Rng.split mc_rng))
  in
  let a =
    Speed_sweep.assess ~dispatch:c.o.policy ?speculation:c.o.speculate
      ~recovery:c.recovery
      ~domains:(Usched_parallel.Pool.recommended_domains ())
      ~draws c.instance c.realization c.placement band
  in
  let makespan_adv =
    Schedule.makespan (lpt_replay ~speeds:a.adv_speeds ~dispatch:c.o.policy c)
  in
  let mc_mean =
    Array.fold_left ( +. ) 0.0 a.mc_ratios /. float_of_int mc_draws
  in
  let mc_max = Array.fold_left Float.max neg_infinity a.mc_ratios in
  Printf.printf
    "speed robustness over band %s:\n\
    \  adversarial revelation [%s]: C_max = %.4f, ratio vs revealed-speed LB \
     = %.4f\n\
    \  Monte-Carlo (%d draws): mean ratio %.4f, worst %.4f (dominated by the \
     adversary)\n\
    \  mid-run revelation at t=%.4f (fault-layer slowdowns): C_max = %.4f\n"
    (Speed_band.to_string band) (floats a.adv_speeds) makespan_adv a.ratio_adv
    mc_draws mc_mean mc_max a.reveal_at a.makespan_reveal;
  emit c
    (summary "speed_robustness"
       [
         ("band", Json.String (Speed_band.to_string band));
         ("adv_speeds", json_floats a.adv_speeds);
         ("makespan_adv", Json.float makespan_adv);
         ("ratio_adv", Json.float a.ratio_adv);
         ("mc_draws", Json.Int mc_draws);
         ("mc_ratio_mean", Json.float mc_mean);
         ("mc_ratio_max", Json.float mc_max);
         ("reveal_at", Json.float a.reveal_at);
         ("makespan_reveal", Json.float a.makespan_reveal);
       ])

let stranded_note = function
  | [] -> ""
  | ids ->
      Printf.sprintf " (stranded: %s)"
        (String.concat "; " (List.map string_of_int ids))

let speculation_note = function
  | None -> ""
  | Some b -> Printf.sprintf ", speculation beta=%g" b

(* Open-system replay: same placement, FCFS (= task id) order, tasks
   revealed by the arrival process. Crash times are drawn over the whole
   busy period, not just the healthy makespan. *)
let stream_replay c ~arrivals ~healthy =
  let o = c.o in
  let max_arrival = Array.fold_left Float.max 0.0 arrivals in
  let faults =
    if o.fail_rate > 0.0 then
      Faults.random_crashes c.rng ~m:c.m ~p:o.fail_rate
        ~horizon:(max_arrival +. healthy)
    else Faults.empty ~m:c.m
  in
  let placement = Placement.sets c.placement and order = Array.init c.n Fun.id in
  phase c "stream";
  let metrics = if tracing c then Metrics.create () else Metrics.disabled in
  let so =
    Engine.run_stream ?speeds:o.speeds ?speculation:o.speculate
      ~dispatch:o.policy ~recovery:c.recovery ~metrics ~faults ?sink:c.sink
      c.instance c.realization ~arrivals ~placement ~order
  in
  emit c (metrics_record "stream" metrics);
  let outcome = so.outcome and lat = so.latencies in
  let k = Array.length lat in
  let q, mean =
    if k = 0 then (Array.make 3 Float.nan, Float.nan)
    else
      ( Usched_stats.Quantile.quantiles lat ~qs:[| 0.5; 0.95; 0.99 |],
        Array.fold_left ( +. ) 0.0 lat /. float_of_int k )
  in
  let drain = outcome.makespan in
  let throughput =
    if drain > 0.0 then float_of_int outcome.completed /. drain else 0.0
  in
  let utilization = Stream_sweep.utilization ~m:c.m c.realization outcome in
  let mean_est =
    Array.fold_left ( +. ) 0.0 (Instance.ests c.instance) /. float_of_int c.n
  in
  Printf.printf
    "\nstream replay (%s, offered load %.3f%s%s): completed %d/%d%s\n\
     drain time %.4f, latency p50 %.4f p95 %.4f p99 %.4f (mean %.4f)\n\
     throughput %.4f tasks/unit, utilization %.4f, wasted work %.4f\n"
    (Arrival.describe o.arrival)
    (Arrival.mean_rate o.arrival /. (float_of_int c.m /. mean_est))
    (if o.fail_rate > 0.0 then Printf.sprintf ", fail-rate %g" o.fail_rate
     else "")
    (speculation_note o.speculate) outcome.completed c.n
    (stranded_note outcome.stranded) drain q.(0) q.(1) q.(2) mean throughput
    utilization outcome.wasted;
  if o.gantt && k > 0 then
    print_string
      ("latency distribution:\n"
      ^ Format.asprintf "%a" Usched_stats.Histogram.pp
          (Usched_stats.Histogram.of_data ~bins:10 lat));
  emit c
    (summary "stream"
       [
         ("arrival", Json.String (Arrival.describe o.arrival));
         ("completed", Json.Int outcome.completed);
         ("stranded", Json.Int (List.length outcome.stranded));
         ("makespan", Json.float drain);
         ("p50", Json.float q.(0));
         ("p95", Json.float q.(1));
         ("p99", Json.float q.(2));
         ("mean_latency", Json.float mean);
         ("throughput", Json.float throughput);
         ("utilization", Json.float utilization);
         ("wasted", Json.float outcome.wasted);
       ])

let faulty_replay c ~healthy =
  let o = c.o in
  let healing = Recovery.is_active c.recovery in
  let faults =
    Faults.random_crashes c.rng ~m:c.m ~p:o.fail_rate ~horizon:healthy
  in
  phase c "faulty";
  (* Live metrics whenever recovery is on: the summary below reads
     transfer/resume counters out of the outcome snapshot. *)
  let metrics =
    if tracing c || healing then Metrics.create () else Metrics.disabled
  in
  let outcome =
    Engine.run_faulty ?speeds:o.speeds ?speculation:o.speculate
      ~dispatch:o.policy ~recovery:c.recovery ~metrics ?sink:c.sink c.instance
      c.realization ~faults
      ~placement:(Placement.sets c.placement)
      ~order:(Instance.lpt_order c.instance)
  in
  emit c (Engine.outcome_json outcome);
  Printf.printf
    "\nfaulty replay (fail-rate %g%s): crashed machines [%s]\n\
     completed %d/%d tasks%s, effective C_max = %.4f (%.2fx healthy), wasted \
     work %.4f\n"
    o.fail_rate (speculation_note o.speculate)
    (String.concat "; " (List.map string_of_int (Faults.crashed faults)))
    outcome.completed c.n (stranded_note outcome.stranded) outcome.makespan
    (outcome.makespan /. healthy) outcome.wasted;
  if healing then begin
    let counter name =
      match Metrics.find outcome.metrics name with
      | Some (Metrics.Counter k) -> k
      | _ -> 0
    in
    Printf.printf "recovery %s: %d re-replication(s), %d checkpoint resume(s)\n"
      (Format.asprintf "%a" Recovery.pp c.recovery)
      (counter "engine.rereplications")
      (counter "engine.checkpoint_resumes")
  end;
  if o.gantt then
    Option.iter
      (fun s -> print_string (Usched_desim.Gantt.render s))
      (Engine.outcome_schedule ~m:c.m outcome)

(* The trace file is created before the run prints anything, so a path
   whose directory cannot be made is a usage error. *)
let with_sink path f =
  match path with
  | None -> Ok (f None)
  | Some path -> (
      match Sink.create ~path with
      | sink -> Ok (Sink.use sink (fun s -> f (Some s)))
      | exception (Failure msg | Sys_error msg) -> Error ("--trace: " ^ msg)
      | exception Unix.Unix_error (e, call, arg) ->
          Error
            (Printf.sprintf "--trace: %s %s: %s" call arg (Unix.error_message e)))

let solve o ~file ~recovery instance =
  let* instance = prepare o instance in
  let m = Instance.m instance and n = Instance.n instance in
  let* () =
    flag ("--algo " ^ Strategy.to_string o.algo) (Strategy.check o.algo ~m)
  in
  let rng = Rng.create ~seed:o.seed () in
  let realization = Realization.log_uniform_factor instance rng in
  let* arrivals = arrivals o rng ~n in
  let algo = Strategy.build o.algo ~m in
  (* The bound first: its sorted copy of the actual times is garbage
     before the replay's lanes exist, so the two never add to the peak
     heap together. *)
  let lb = Core.Lower_bounds.best ~m (Realization.actuals realization) in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  let healthy = Schedule.makespan schedule in
  with_sink o.trace @@ fun sink ->
  let c = { o; instance; m; n; recovery; rng; realization; placement; sink } in
  report_placement c ~file ~algo ~schedule ~healthy ~lb;
  let held = Option.map (fun _ -> Sink.memory ()) sink in
  let replay = lazy (healthy_replay c ~sink:held) in
  Option.iter (report_speeds c replay) o.speeds;
  Option.iter (survival c) o.target_reliability;
  Option.iter (speed_robustness c) (Instance.speed_band instance);
  if o.policy <> Dispatch.default then report_policy c replay;
  (match (sink, held) with
  | Some s, Some held -> trace_healthy c s ~held replay ~lb
  | _ -> ());
  if o.stream then stream_replay c ~arrivals ~healthy
  else if o.fail_rate > 0.0 || o.speculate <> None || Recovery.is_active recovery
  then faulty_replay c ~healthy;
  Option.iter (Printf.printf "[trace] wrote %s\n") o.trace

let run o file =
  let* () = check_ranges o in
  let* recovery = recovery_of o in
  let* instance = read file in
  solve o ~file ~recovery instance

let run_instance o ~file instance =
  let* () = check_ranges o in
  let* recovery = recovery_of o in
  solve o ~file ~recovery instance
