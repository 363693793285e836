(* The traced mode's in-process copy of the CLI's operations.

   [solve] repeats [usched solve] (bin/main.ml) for the flag combinations
   the workloads use: the same library calls, in the same order, on the
   same random streams, each call wrapped in a span. [gen] repeats
   [usched gen] and [artifacts] repeats [usched all] / [usched run].
   Each returns the values the CLI prints, formatted as the CLI formats
   them, so the benchmark can check that the copy stays faithful; a flag
   combination the copy does not follow shows up there as a mismatch. A
   live metrics registry goes to every engine call that accepts one:
   metrics never change the engine's results, and their counters become
   span counters. *)

module Model = Usched_model
module Core = Usched_core
module Engine = Usched_desim.Engine
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace
module Json = Usched_report.Json
module Rng = Usched_prng.Rng

(* Printed values by label; [Check.solve] reads the same labels from the
   CLI's stdout. *)
type facts = (string * string) list

let f4 = Printf.sprintf "%.4f"
let count key value = { Span.key; unit = "count"; value = float_of_int value }
let ok = function Ok v -> v | Error msg -> failwith msg

(* Engine counters as span counters, renamed into the desim namespace
   ([engine.kills] becomes [desim.engine.kills]). The healthy engine
   registers no completion counter: every copy it starts completes, so
   its dispatches stand in for completions. *)
let engine_counters metrics _ =
  let counters =
    List.filter_map
      (fun (name, v) -> match v with Metrics.Counter c -> Some (name, c) | _ -> None)
      (Metrics.snapshot metrics)
  in
  let counters =
    match
      (List.assoc_opt "engine.dispatches" counters, List.assoc_opt "engine.completed" counters)
    with
    | Some d, None -> ("engine.completed", d) :: counters
    | _ -> counters
  in
  List.map (fun (name, c) -> count ("desim." ^ name) c) counters

let digest path = Digest.to_hex (Digest.file path)

let gen sp (g : Workload.gen) ~seed ~out =
  let m = g.machines in
  let instance =
    Span.record sp "model.workload.generate" (fun () ->
        Model.Workload.generate g.spec ~n:g.tasks ~m
          ~alpha:(Model.Uncertainty.alpha g.alpha)
          (Rng.create ~seed ()))
  in
  let instance =
    Model.Instance.with_failure instance
      (Option.map (fun p -> Model.Failure.uniform ~m ~p) g.failp)
  in
  let instance =
    Model.Instance.with_speed_band instance
      (Option.map (fun s -> ok (Model.Speed_band.of_spec ~m s)) g.speed_band)
  in
  let instance =
    Model.Instance.with_topology instance
      (Option.map (fun s -> ok (Model.Topology.of_spec ~m s)) g.topology)
  in
  Span.record sp "model.io.save_instance" (fun () ->
      Model.Io.save_instance ~path:out instance);
  [ ("instance", digest out) ]

(* [probe], when present, replays the faulty engine call without its
   event log; it runs after the op's span has closed, so the log's cost
   shows as [desim.engine.traced_extra_s]. *)
type result = { facts : facts; probe : (unit -> float) option }

let solve sp (s : Workload.solve) ~file ~seed ~trace_path : result =
  let policy = Usched_desim.Dispatch.default in
  let recovery =
    if s.recover = 0 && s.detect_latency = 0.0 && s.bandwidth = infinity then
      Recovery.none
    else
      Recovery.make ~detection_latency:s.detect_latency
        ~rereplication_target:(Recovery.Fixed s.recover) ~bandwidth:s.bandwidth
        ~checkpoint_interval:0.0 ()
  in
  let arrival = Option.map (fun a -> ok (Usched_desim.Arrival.of_string a)) s.arrival in
  let instance =
    Span.record sp "model.io.load_instance" (fun () ->
        Model.Io.load_instance ~path:file)
  in
  let m = Model.Instance.m instance and n = Model.Instance.n instance in
  let band = Model.Instance.speed_band instance in
  let topo = Model.Instance.topology instance in
  let sizes = Model.Instance.sizes instance in
  let spec = ok (Core.Strategy.of_string s.algo) in
  let algo =
    Span.record sp "core.strategy.build" (fun () ->
        ok (Core.Strategy.check spec ~m);
        Core.Strategy.build spec ~m)
  in
  let lpt_order () =
    Span.record sp "model.instance.lpt_order" (fun () ->
        Model.Instance.lpt_order instance)
  in
  let rng = Rng.create ~seed () in
  let realization =
    Span.record sp "model.realization" (fun () ->
        Model.Realization.log_uniform_factor instance rng)
  in
  (* [Two_phase.run_full], one span per phase. *)
  let placement =
    Span.record sp "core.phase1"
      ~counters:(fun p ->
        [ count "core.placement.total_replicas" (Core.Placement.total_replicas p) ])
      (fun () -> algo.Core.Two_phase.phase1 instance)
  in
  let schedule =
    Span.record sp "desim.engine.run" (fun () ->
        algo.Core.Two_phase.phase2 instance placement realization)
  in
  let sets = Core.Placement.sets placement in
  let lb =
    Span.record sp "core.lower_bounds" (fun () ->
        Core.Lower_bounds.best ~m (Model.Realization.actuals realization))
  in
  let healthy = Usched_desim.Schedule.makespan schedule in
  let replication_cost topology =
    Span.record sp "core.placement.replication_cost" (fun () ->
        Core.Placement.replication_cost placement ~topology ~sizes)
  in
  let sink =
    Option.map
      (fun path -> Span.record sp "obs.trace.create" (fun () -> Sink.create ~path))
      trace_path
  in
  let records = ref 0 in
  let emit_each to_json items =
    Option.iter
      (fun sink ->
        Span.record sp "obs.trace.emit" (fun () ->
            List.iter
              (fun item ->
                incr records;
                Sink.emit sink (to_json item))
              items))
      sink
  in
  let emit json = emit_each Fun.id [ json ] in
  (* Built even when nothing is traced, as the CLI builds it. *)
  emit
    (Json.Obj
       [
         ("type", Json.String "meta");
         ("tool", Json.String "usched solve");
         ("file", Json.String file);
         ("algo", Json.String algo.Core.Two_phase.name);
         ("algo_spec", Json.String (Core.Strategy.to_string spec));
         ("seed", Json.Int seed);
         ("n", Json.Int n);
         ("m", Json.Int m);
         ("fail_rate", Json.float s.fail_rate);
         ("speeds", Json.Null);
         ( "speed_band",
           match band with
           | None -> Json.Null
           | Some b -> Json.String (Model.Speed_band.to_string b) );
         ( "topology",
           match topo with
           | None -> Json.Null
           | Some t -> Json.String (Model.Topology.to_string t) );
         ( "topology_zones",
           match topo with
           | None -> Json.Null
           | Some t -> Json.Int (Model.Topology.zones t) );
         ( "replication_cost",
           Json.float (replication_cost (Model.Instance.topology_or_uniform instance)) );
         ("policy", Json.String (Usched_desim.Dispatch.name policy));
         ("stream", Json.Bool (arrival <> None));
         ( "arrival",
           match arrival with
           | Some a -> Json.String (Usched_desim.Arrival.describe a)
           | None -> Json.Null );
         ( "speculate",
           match s.speculate with None -> Json.Null | Some b -> Json.float b );
         ( "recovery",
           if Recovery.is_none recovery then Json.Null
           else
             Json.Obj
               [
                 ("detection_latency", Json.float recovery.Recovery.detection_latency);
                 ( "rereplication_target",
                   match recovery.Recovery.rereplication_target with
                   | Recovery.Fixed r -> Json.Int r
                   | Recovery.Degree -> Json.String "degree" );
                 ("bandwidth", Json.float recovery.Recovery.bandwidth);
                 ("checkpoint_interval", Json.float recovery.Recovery.checkpoint_interval);
               ] );
       ]);
  ignore
    (Span.record sp "core.placement.memory_max" (fun () ->
         Core.Placement.memory_max placement ~sizes));
  Option.iter (fun t -> ignore (replication_cost t)) topo;
  ignore
    (Span.record sp "desim.timeline.render_stats" (fun () ->
         Usched_desim.Timeline.render_stats schedule));
  let facts =
    ref [ ("cmax", f4 healthy); ("lb", f4 lb); ("ratio", f4 (healthy /. lb)) ]
  in
  let fact label v = facts := (label, v) :: !facts in
  Option.iter
    (fun _target ->
      let sv =
        Span.record sp "experiments.mc_survival" (fun () ->
            Usched_experiments.Reliability_sweep.monte_carlo_survival
              ~domains:(Usched_parallel.Pool.recommended_domains ())
              ~seed
              ~profile:(Model.Instance.failure_or_default instance)
              placement)
      in
      ignore
        (Span.record sp "core.reliability.survival_bound" (fun () ->
             Core.Reliability.survival_bound instance placement));
      fact "survival" (f4 sv.Usched_experiments.Reliability_sweep.point))
    s.target_reliability;
  Option.iter
    (fun band ->
      let actuals = Model.Realization.actuals realization in
      let order = lpt_order () in
      let makespan_at speeds =
        Usched_desim.Schedule.makespan
          (Engine.run ~speeds ~dispatch:policy instance realization ~placement:sets
             ~order)
      in
      let mc_rng = Rng.create ~seed:(seed + 1) () in
      let draws =
        Span.record sp "model.speed_band.sample" (fun () ->
            Array.init 32 (fun _ -> Model.Speed_band.sample band (Rng.split mc_rng)))
      in
      (* The adversary fans [run] out over domains, where spans may not
         be recorded: count its calls and busy time with atomics. *)
      let calls = Atomic.make 0 and busy_ns = Atomic.make 0 in
      let counted_ratio speeds =
        let t0 = Unix.gettimeofday () in
        let r = makespan_at speeds /. Core.Uniform.lower_bound ~speeds actuals in
        ignore
          (Atomic.fetch_and_add busy_ns
             (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)));
        Atomic.incr calls;
        r
      in
      let domains = Usched_parallel.Pool.recommended_domains () in
      let t0 = Unix.gettimeofday () in
      let adv_speeds, ratio_adv =
        Span.record sp "core.speed_adversary.worst_case"
          ~counters:(fun _ ->
            let busy = float_of_int (Atomic.get busy_ns) *. 1e-9 in
            let wall = Unix.gettimeofday () -. t0 in
            [
              count "core.speed_adversary.run_calls" (Atomic.get calls);
              { Span.key = "core.speed_adversary.run_busy_s"; unit = "s"; value = busy };
              {
                Span.key = "parallel.pool.efficiency";
                unit = "ratio";
                value = busy /. (float_of_int domains *. wall);
              };
            ])
          (fun () ->
            Core.Speed_adversary.worst_case ~run:counted_ratio
              ~candidates:(Array.to_list draws) ~domains instance placement band)
      in
      let traced_makespan_at speeds =
        Span.record sp "desim.engine.run" (fun () -> makespan_at speeds)
      in
      ignore (traced_makespan_at adv_speeds);
      let mc_worst =
        Array.fold_left
          (fun acc d ->
            Float.max acc
              (traced_makespan_at d /. Core.Uniform.lower_bound ~speeds:d actuals))
          neg_infinity draws
      in
      let his = Model.Speed_band.his band in
      let reveal_at = 0.5 *. Core.Uniform.lower_bound ~speeds:his actuals in
      let metrics = Metrics.create () in
      let reveal =
        Span.record sp "desim.engine.run_faulty" ~counters:(engine_counters metrics)
          (fun () ->
            Engine.run_faulty ?speculation:s.speculate ~speeds:his ~dispatch:policy
              ~recovery ~metrics instance realization
              ~faults:
                (Usched_faults.Trace.revelation ~m ~at:reveal_at
                   (Array.mapi (fun i s -> s /. his.(i)) adv_speeds))
              ~placement:sets ~order)
      in
      fact "ratio_adv" (f4 ratio_adv);
      fact "mc_worst" (f4 mc_worst);
      fact "reveal_cmax" (f4 reveal.Engine.makespan))
    band;
  if sink <> None then begin
    emit (Json.Obj [ ("type", Json.String "phase"); ("name", Json.String "healthy") ]);
    let metrics = Metrics.create () in
    let order = lpt_order () in
    let replay, events =
      Span.record sp "desim.engine.run_traced" ~counters:(engine_counters metrics)
        (fun () ->
          Engine.run_traced ~dispatch:policy ~metrics instance realization
            ~placement:sets ~order)
    in
    emit_each Engine.event_json events;
    emit
      (Json.Obj
         [
           ("type", Json.String "metrics");
           ("phase", Json.String "healthy");
           ("metrics", Metrics.to_json (Metrics.snapshot metrics));
         ]);
    emit
      (Json.Obj
         [
           ("type", Json.String "summary");
           ("phase", Json.String "healthy");
           ("makespan", Json.float (Usched_desim.Schedule.makespan replay));
           ("lower_bound", Json.float lb);
         ])
  end;
  let probe = ref None in
  (match arrival with
  | Some arrival ->
      (* A fault-free, untraced stream: FCFS order, arrivals drawn after
         the realization from the same generator. *)
      let arrivals =
        Span.record sp "desim.arrival.generate" (fun () ->
            Usched_desim.Arrival.generate arrival rng ~count:n)
      in
      let metrics = Metrics.create () in
      let so =
        Span.record sp "desim.engine.run_stream" ~counters:(engine_counters metrics)
          (fun () ->
            Engine.run_stream ?speculation:s.speculate ~dispatch:policy ~recovery
              ~metrics
              ~faults:(Usched_faults.Trace.empty ~m)
              instance realization ~arrivals ~placement:sets
              ~order:(Array.init n Fun.id))
      in
      let quantiles () =
        Span.record sp "stats.quantile" (fun () ->
            let q p = Usched_stats.Quantile.quantile so.Engine.latencies ~q:p in
            (q 0.5, q 0.95, q 0.99))
      in
      let p50, p95, p99 = quantiles () in
      (* The CLI takes the quantiles a second time for its summary record. *)
      ignore (quantiles ());
      fact "completed" (Printf.sprintf "%d/%d" so.Engine.outcome.Engine.completed n);
      fact "p50" (f4 p50);
      fact "p95" (f4 p95);
      fact "p99" (f4 p99)
  | None ->
      if s.fail_rate > 0.0 || s.speculate <> None || Recovery.is_active recovery then begin
        let faults =
          Span.record sp "faults.trace.random_crashes" (fun () ->
              Usched_faults.Trace.random_crashes rng ~m ~p:s.fail_rate ~horizon:healthy)
        in
        if sink <> None then
          emit (Json.Obj [ ("type", Json.String "phase"); ("name", Json.String "faulty") ]);
        let metrics = Metrics.create () in
        let order = lpt_order () in
        let outcome, events =
          Span.record sp "desim.engine.run_faulty" ~counters:(engine_counters metrics)
            (fun () ->
              Engine.run_faulty_traced ?speculation:s.speculate ~dispatch:policy
                ~recovery ~metrics instance realization ~faults ~placement:sets ~order)
        in
        emit_each Engine.event_json events;
        emit (Engine.outcome_json outcome);
        fact "completed" (Printf.sprintf "%d/%d" outcome.Engine.completed n);
        fact "stranded" (string_of_int (List.length outcome.Engine.stranded));
        fact "faulty_cmax" (f4 outcome.Engine.makespan);
        if Recovery.is_active recovery then
          fact "rereplications"
            (match Metrics.find outcome.Engine.metrics "engine.rereplications" with
            | Some (Metrics.Counter c) -> string_of_int c
            | _ -> "0");
        probe :=
          Some
            (fun () ->
              let t0 = Unix.gettimeofday () in
              ignore
                (Engine.run_faulty ?speculation:s.speculate ~dispatch:policy ~recovery
                   instance realization ~faults ~placement:sets ~order);
              Unix.gettimeofday () -. t0)
      end);
  Option.iter
    (fun sink ->
      let path = Sink.path sink in
      Span.record sp "obs.trace.close"
        ~counters:(fun () ->
          [
            count "obs.trace.records" !records;
            count "obs.trace.bytes" (Unix.stat path).Unix.st_size;
          ])
        (fun () -> Sink.close sink);
      fact "trace" (digest path))
    sink;
  { facts = List.rev !facts; probe = !probe }

(* [usched all] / [usched run IDS] with [--quick --domains 2]: one span
   per experiment. The experiments print their tables; they go to
   [stdout_path] so the benchmark's own stdout stays readable. *)
let artifacts sp ids ~seed ~csv ~stdout_path =
  let module Registry = Usched_experiments.Registry in
  let module Runner = Usched_experiments.Runner in
  let config =
    Runner.quick { Runner.default_config with seed; domains = 2; csv_dir = Some csv }
  in
  let experiments =
    match ids with
    | [] -> Registry.all
    | ids -> List.map (fun id -> Option.get (Registry.find id)) ids
  in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile stdout_path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    (fun () ->
      List.iter
        (fun e ->
          Span.record sp ("experiments." ^ e.Registry.id) (fun () ->
              Registry.execute config e))
        experiments)
