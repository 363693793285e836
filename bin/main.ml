(* usched: command-line driver for the experiment harness and a small
   workbench over instance files (generate / solve / minimax). *)

open Cmdliner
module Experiments = Usched_experiments
module Core = Usched_core
module Model = Usched_model
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace
module Json = Usched_report.Json

let config_term =
  let seed =
    Arg.(value & opt int Experiments.Runner.default_config.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")
  in
  let reps =
    Arg.(value & opt int Experiments.Runner.default_config.reps
         & info [ "reps" ] ~docv:"N" ~doc:"Repetitions per sampled point.")
  in
  let domains =
    Arg.(value & opt int Experiments.Runner.default_config.domains
         & info [ "domains" ] ~docv:"D" ~doc:"Parallel domains for sweeps.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Reduce repetitions for a fast smoke run.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also dump raw series as CSV files.")
  in
  let build seed reps domains quick csv =
    let config =
      { Experiments.Runner.default_config with seed; reps; domains; csv_dir = csv }
    in
    if quick then Experiments.Runner.quick config else config
  in
  Term.(const build $ seed $ reps $ domains $ quick $ csv)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-20s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const run $ const ())

let run_cmd =
  let ids =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (see list).")
  in
  let run config ids =
    List.iter
      (fun id ->
        match Experiments.Registry.find id with
        | Some e -> Experiments.Registry.execute config e
        | None ->
            Printf.eprintf "unknown experiment %S; try 'usched list'\n" id;
            exit 2)
      ids
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one or more experiments by id.")
    Term.(const run $ config_term $ ids)

let all_cmd =
  let run config = Experiments.Registry.run_all config in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (all paper tables/figures).")
    Term.(const run $ config_term)

(* ---------------- workbench commands over instance files ------------- *)

let workload_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "identical"; v ] -> Ok (Model.Workload.Identical (float_of_string v))
    | [ "uniform"; lo; hi ] ->
        Ok (Model.Workload.Uniform
              { lo = float_of_string lo; hi = float_of_string hi })
    | [ "exponential"; mean ] ->
        Ok (Model.Workload.Exponential { mean = float_of_string mean })
    | [ "pareto"; shape; scale; cap ] ->
        Ok (Model.Workload.Pareto
              {
                shape = float_of_string shape;
                scale = float_of_string scale;
                cap = float_of_string cap;
              })
    | [ "bimodal"; p; short_mean; long_mean ] ->
        Ok (Model.Workload.Bimodal
              {
                p_long = float_of_string p;
                short_mean = float_of_string short_mean;
                long_mean = float_of_string long_mean;
              })
    | _ ->
        Error
          (`Msg
             "expected identical:V | uniform:LO:HI | exponential:MEAN | \
              pareto:SHAPE:SCALE:CAP | bimodal:P:SHORT:LONG")
  in
  let print ppf spec = Format.fprintf ppf "%s" (Model.Workload.spec_name spec) in
  Arg.conv ~docv:"SPEC" (parse, print)

let gen_cmd =
  let spec =
    Arg.(value & opt workload_conv (Model.Workload.Uniform { lo = 1.0; hi = 10.0 })
         & info [ "workload" ] ~docv:"SPEC" ~doc:"Workload family, e.g. uniform:1:10.")
  in
  let n = Arg.(value & opt int 20 & info [ "n"; "tasks" ] ~doc:"Number of tasks.") in
  let m = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~doc:"Number of machines.") in
  let alpha =
    Arg.(value & opt float 1.5 & info [ "alpha" ] ~doc:"Uncertainty factor (>= 1).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let failp =
    Arg.(value & opt (some string) None
         & info [ "failp" ] ~docv:"PROFILE"
             ~doc:"Attach a per-machine failure profile: either uniform:P \
                   (every machine fails with probability P) or a \
                   comma-separated list of M probabilities. Serialized into \
                   the instance header and read back by 'solve'.")
  in
  let speed_band =
    Arg.(value & opt (some string) None
         & info [ "speed-band" ] ~docv:"SPEC"
             ~doc:"Attach per-machine speed uncertainty bands: either \
                   uniform:LO:HI (the same band on every machine) or a \
                   comma-separated list of M LO:HI pairs (a single speed S \
                   means a known speed). Serialized into the instance header \
                   and read back by 'solve', which then reports adversarial \
                   and Monte-Carlo speed robustness.")
  in
  let topology =
    Arg.(value & opt (some string) None
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Attach a cluster topology: uniform (one zone, free \
                   transfers), zones:Z:BW[:LAT] (Z balanced zones, one \
                   cross-zone bandwidth and optional latency), or a \
                   serialized ZONES|BW|LAT matrix form. Serialized into the \
                   instance header and read back by 'solve', which then \
                   prices replication transfers and staging.")
  in
  let out =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output instance file.")
  in
  let run spec n m alpha seed failp speed_band topology out =
    let failure =
      match failp with
      | None -> None
      | Some s -> (
          let parsed =
            match String.split_on_char ':' s with
            | [ "uniform"; p ] -> (
                match float_of_string_opt p with
                | Some p when p >= 0.0 && p <= 1.0 ->
                    Ok (Model.Failure.uniform ~m ~p)
                | _ ->
                    Error
                      (Printf.sprintf
                         "uniform failure probability %S must be in [0, 1]" p))
            | _ -> Model.Failure.of_string s
          in
          match parsed with
          | Ok f when Model.Failure.m f = m -> Some f
          | Ok f ->
              Printf.eprintf
                "usched: --failp lists %d probabilities for %d machines\n"
                (Model.Failure.m f) m;
              exit 2
          | Error msg ->
              Printf.eprintf "usched: --failp: %s\n" msg;
              exit 2)
    in
    let band =
      match speed_band with
      | None -> None
      | Some s -> (
          match Model.Speed_band.of_spec ~m s with
          | Ok b -> Some b
          | Error msg ->
              Printf.eprintf "usched: --speed-band: %s\n" msg;
              exit 2)
    in
    let topo =
      match topology with
      | None -> None
      | Some s -> (
          match Model.Topology.of_spec ~m s with
          | Ok t -> Some t
          | Error msg ->
              Printf.eprintf "usched: --topology: %s\n" msg;
              exit 2)
    in
    let rng = Usched_prng.Rng.create ~seed () in
    let instance =
      Model.Workload.generate spec ~n ~m
        ~alpha:(Model.Uncertainty.alpha alpha) rng
    in
    let instance =
      match failure with
      | None -> instance
      | Some _ -> Model.Instance.with_failure instance failure
    in
    let instance =
      match band with
      | None -> instance
      | Some _ -> Model.Instance.with_speed_band instance band
    in
    let instance =
      match topo with
      | None -> instance
      | Some _ -> Model.Instance.with_topology instance topo
    in
    Model.Io.save_instance ~path:out instance;
    Printf.printf "wrote %s (%d tasks, %d machines, alpha=%g%s%s%s)\n" out n m
      alpha
      (match failure with
      | None -> ""
      | Some f -> Printf.sprintf ", failure profile %s" (Model.Failure.to_string f))
      (match band with
      | None -> ""
      | Some b ->
          Printf.sprintf ", speed band %s" (Model.Speed_band.to_string b))
      (match topo with
      | None -> ""
      | Some t ->
          Printf.sprintf ", topology %d zone%s" (Model.Topology.zones t)
            (if Model.Topology.zones t = 1 then "" else "s"))
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic instance file.")
    Term.(
      const run $ spec $ n $ m $ alpha $ seed $ failp $ speed_band $ topology
      $ out)

(* The strategy catalog owns the whole --algo grammar: parsing,
   parameter validation (NaN deltas, zero group counts, ...), and the
   help listing all arrive through [Strategy.of_string]. *)
let strategy_conv =
  let parse s =
    match Core.Strategy.of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf spec = Format.fprintf ppf "%s" (Core.Strategy.to_string spec) in
  Arg.conv ~docv:"ALGO" (parse, print)

let policy_conv =
  let parse s =
    match Usched_desim.Dispatch.spec_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Format.fprintf ppf "%s" (Usched_desim.Dispatch.name p) in
  Arg.conv ~docv:"POLICY" (parse, print)

(* Validated float converters: plain [Arg.float] happily accepts "nan",
   which sails past range checks like [x < 0.0 || x > 1.0] and only
   blows up deep inside the engine. Reject it (and out-of-range values)
   at parse time with a proper cmdliner error instead. *)
let float_conv_of ~docv ~expect ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "%s must be %s (got %g)" docv expect f))
    | None -> Error (`Msg (Printf.sprintf "invalid %s value %S" docv s))
  in
  Arg.conv ~docv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let prob_conv =
  float_conv_of ~docv:"PROB" ~expect:"a probability in [0, 1]" (fun f ->
      f >= 0.0 && f <= 1.0)

let pos_float_conv ~docv =
  (* NaN fails [f > 0.]; infinity is allowed (an infinite bandwidth means
     instantaneous transfers, an infinite beta disables speculation). *)
  float_conv_of ~docv ~expect:"> 0" (fun f -> f > 0.0)

let nonneg_float_conv ~docv =
  float_conv_of ~docv ~expect:"a finite value >= 0" (fun f ->
      Float.is_finite f && f >= 0.0)

(* Strict probability for reliability targets: 0 and 1 are excluded (a
   target of 1 needs every machine, a target of 0 is vacuous), and NaN
   is rejected like everywhere else. *)
let open_prob_conv ~docv =
  float_conv_of ~docv ~expect:"a probability in (0, 1)" (fun f ->
      f > 0.0 && f < 1.0)

(* --speeds parses into a validated array; the length check against the
   instance's machine count happens once the file is loaded. *)
let speeds_conv =
  let parse s =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
          match float_of_string_opt (String.trim p) with
          | Some f when Float.is_finite f && f > 0.0 -> go (f :: acc) rest
          | _ ->
              Error
                (`Msg
                   (Printf.sprintf
                      "invalid machine speed %S: expected a comma-separated \
                       list of finite speeds > 0"
                      p)))
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf a =
    Format.fprintf ppf "%s"
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%g") a)))
  in
  Arg.conv ~docv:"SPEEDS" (parse, print)

(* --recover takes a replica count or the keyword "degree" (restore each
   task to its phase-1 replication degree); Recovery owns the grammar. *)
let recover_conv =
  let parse s =
    match Usched_faults.Recovery.target_of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t =
    Format.fprintf ppf "%s" (Usched_faults.Recovery.target_to_string t)
  in
  Arg.conv ~docv:"R" (parse, print)

(* --arrival delegates its whole grammar (and every validation: NaN
   rates, unsorted trace files, ...) to [Arrival.of_string], mirroring
   the strategy catalog. *)
let arrival_conv =
  let parse s =
    match Usched_desim.Arrival.of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a = Format.fprintf ppf "%s" (Usched_desim.Arrival.describe a) in
  Arg.conv ~docv:"SPEC" (parse, print)

let solve_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Instance file (see 'gen').")
  in
  let algo =
    Arg.(value & opt strategy_conv Core.Strategy.(full_replication Lpt)
         & info [ "algo" ] ~docv:"ALGO"
             ~doc:"Two-phase algorithm to run, e.g. ls-group:2 or sabo:0.5. \
                   Pass 'help' (or see 'usched strategies') for the full \
                   grammar.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Realization seed.") in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print the Gantt chart.") in
  let fail_rate =
    Arg.(value & opt prob_conv 0.0
         & info [ "fail-rate" ] ~docv:"P"
             ~doc:"Also replay the schedule with each machine crashing \
                   mid-run with probability $(docv) (crash times uniform \
                   over the healthy makespan).")
  in
  let speculate =
    Arg.(value & opt (some (pos_float_conv ~docv:"BETA")) None
         & info [ "speculate" ] ~docv:"BETA"
             ~doc:"Enable speculative re-execution in the faulty replay: an \
                   idle replica holder may start a backup copy once a task \
                   runs past $(docv) times its estimate.")
  in
  let recover =
    Arg.(value & opt recover_conv (Usched_faults.Recovery.Fixed 0)
         & info [ "recover" ] ~docv:"R"
             ~doc:"Online re-replication in the faulty replay: when failures \
                   drop a task's live replica count below $(docv), copy its \
                   data from a surviving holder to a healthy machine. Pass \
                   'degree' to restore each task to its own phase-1 \
                   replication degree (for variable-degree placements such \
                   as reliability:TARGET).")
  in
  let detect_latency =
    Arg.(value & opt (nonneg_float_conv ~docv:"LATENCY") 0.0
         & info [ "detect-latency" ] ~docv:"LATENCY"
             ~doc:"Failure-detection latency: the scheduler only learns of a \
                   failure $(docv) time units after it happens (0 = \
                   instantaneous detection).")
  in
  let bandwidth =
    Arg.(value & opt (pos_float_conv ~docv:"BW") infinity
         & info [ "bandwidth" ] ~docv:"BW"
             ~doc:"Re-replication bandwidth in data-size units per time unit \
                   (default: infinite, i.e. instantaneous copies).")
  in
  let checkpoint =
    Arg.(value & opt (nonneg_float_conv ~docv:"C") 0.0
         & info [ "checkpoint" ] ~docv:"C"
             ~doc:"Checkpoint interval in work units: a copy killed by an \
                   outage resumes from its last checkpoint when the machine \
                   rejoins (0 = restart from scratch).")
  in
  let target_reliability =
    Arg.(value & opt (some (open_prob_conv ~docv:"T")) None
         & info [ "target-reliability" ] ~docv:"T"
             ~doc:"Check the placement against a survival target: estimate \
                   P(no stranded task) by Monte-Carlo over the instance's \
                   machine failure profile (or the uniform default), print \
                   it next to the analytic union bound, and report whether \
                   $(docv) is met. Pairs with --algo reliability:$(docv).")
  in
  let speeds =
    Arg.(value & opt (some speeds_conv) None
         & info [ "speeds" ] ~docv:"SPEEDS"
             ~doc:"Machine speeds for every engine replay (healthy, faulty, \
                   stream): a comma-separated list of M finite speeds > 0. A \
                   task with actual processing requirement p occupies machine \
                   i for p / SPEEDS[i] — the uniform (related) machines \
                   extension. Default: all 1.")
  in
  let speed_band =
    Arg.(value & opt (some string) None
         & info [ "speed-band" ] ~docv:"SPEC"
             ~doc:"Per-machine speed uncertainty bands (uniform:LO:HI or M \
                   comma-separated LO:HI / S entries), overriding any band in \
                   the instance header. With a band present — from this flag \
                   or the header — solve reports speed robustness: the \
                   adversarial in-band revelation, Monte-Carlo revelations it \
                   dominates, and a mid-run revelation replayed through the \
                   fault layer.")
  in
  let topology =
    Arg.(value & opt (some string) None
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Network topology override for transfer costs (uniform, \
                   zones:Z:BW[:LAT], or a serialized ZONES|BW|LAT form), \
                   replacing any topology in the instance header. Replication \
                   and recovery transfers between zones are charged data-size \
                   / bandwidth + latency; the engine stages a task's data \
                   before its first copy on each machine.")
  in
  let policy =
    Arg.(value & opt policy_conv Usched_desim.Dispatch.default
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:(Printf.sprintf
                     "Engine dispatch policy for the placement replays \
                      (healthy and faulty): %s. The default reproduces the \
                      paper's list-priority rule; any other choice also \
                      prints its replay makespan next to the algorithm's."
                     Usched_desim.Dispatch.known_names))
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Open-system replay: tasks arrive over time (--arrival) \
                   instead of all being present at t=0, and are dispatched \
                   in arrival (FCFS) order. Reports per-task latency \
                   quantiles (p50/p95/p99), throughput and machine \
                   utilization; composes with --fail-rate, --speculate, \
                   --recover and --policy.")
  in
  let arrival =
    Arg.(value & opt arrival_conv (Usched_desim.Arrival.poisson ~rate:1.0)
         & info [ "arrival" ] ~docv:"SPEC"
             ~doc:(Printf.sprintf
                     "Arrival process for --stream: %s. Trace files hold one \
                      arrival instant per line (blank lines and # comments \
                      skipped)."
                     Usched_desim.Arrival.grammar))
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Serialize the run as JSONL (one JSON object per line): a \
                   meta record, every engine event of an LPT-order replay of \
                   the placement (and of the faulty replay, if any), metrics \
                   snapshots, and summary records. Parent directories are \
                   created as needed.")
  in
  let run file spec seed gantt fail_rate speculate recover detect_latency
      bandwidth checkpoint target_reliability speeds speed_band topology policy
      stream arrival trace_path =
    let recovery =
      if
        recover = Usched_faults.Recovery.Fixed 0
        && detect_latency = 0.0
        && bandwidth = infinity
        && checkpoint = 0.0
      then Usched_faults.Recovery.none
      else
        match
          Usched_faults.Recovery.make ~detection_latency:detect_latency
            ~rereplication_target:recover ~bandwidth
            ~checkpoint_interval:checkpoint ()
        with
        | r -> r
        | exception Invalid_argument msg ->
            Printf.eprintf "usched: %s\n" msg;
            exit 2
    in
    let instance =
      match Model.Io.load_instance ~path:file with
      | instance -> instance
      | exception Failure msg ->
          Printf.eprintf "usched: %s: %s\n" file msg;
          exit 2
    in
    let m = Model.Instance.m instance in
    let n = Model.Instance.n instance in
    (match speeds with
    | Some a when Array.length a <> m ->
        Printf.eprintf "usched: --speeds lists %d speeds for %d machines\n"
          (Array.length a) m;
        exit 2
    | _ -> ());
    (* The flag overrides any band the instance header carries. *)
    let band =
      match speed_band with
      | Some s -> (
          match Model.Speed_band.of_spec ~m s with
          | Ok b -> Some b
          | Error msg ->
              Printf.eprintf "usched: --speed-band: %s\n" msg;
              exit 2)
      | None -> Model.Instance.speed_band instance
    in
    (* The flag overrides any topology the instance header carries. *)
    let instance =
      match topology with
      | None -> instance
      | Some s -> (
          match Model.Topology.of_spec ~m s with
          | Ok t -> Model.Instance.with_topology instance (Some t)
          | Error msg ->
              Printf.eprintf "usched: --topology: %s\n" msg;
              exit 2)
    in
    let topo = Model.Instance.topology instance in
    (* Per-instance constraints (group count vs m, speeds length) can
       only be checked once the instance is known. *)
    let algo =
      match Core.Strategy.check spec ~m with
      | Ok () -> Core.Strategy.build spec ~m
      | Error msg ->
          Printf.eprintf "usched: --algo %s: %s\n"
            (Core.Strategy.to_string spec) msg;
          exit 2
    in
    let rng = Usched_prng.Rng.create ~seed () in
    let realization = Model.Realization.log_uniform_factor instance rng in
    let placement, schedule = Core.Two_phase.run_full algo instance realization in
    let lb = Core.Lower_bounds.best ~m (Model.Realization.actuals realization) in
    let healthy = Usched_desim.Schedule.makespan schedule in
    let with_sink f =
      match trace_path with
      | None -> f None
      | Some path -> Sink.with_file ~path (fun s -> f (Some s))
    in
    with_sink @@ fun sink ->
    let tracing = sink <> None in
    let emit json = match sink with None -> () | Some s -> Sink.emit s json in
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
           ("fail_rate", Json.float fail_rate);
           ( "speeds",
             match speeds with
             | None -> Json.Null
             | Some a ->
                 Json.List (Array.to_list (Array.map Json.float a)) );
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
             Json.float
               (Core.Placement.replication_cost placement
                  ~topology:(Model.Instance.topology_or_uniform instance)
                  ~sizes:(Model.Instance.sizes instance)) );
           ("policy", Json.String (Usched_desim.Dispatch.name policy));
           ("stream", Json.Bool stream);
           ( "arrival",
             if stream then
               Json.String (Usched_desim.Arrival.describe arrival)
             else Json.Null );
           ( "speculate",
             match speculate with None -> Json.Null | Some b -> Json.float b );
           ( "recovery",
             if Usched_faults.Recovery.is_none recovery then Json.Null
             else
               Json.Obj
                 [
                   ( "detection_latency",
                     Json.float recovery.Usched_faults.Recovery.detection_latency
                   );
                   ( "rereplication_target",
                     match recovery.Usched_faults.Recovery.rereplication_target
                     with
                     | Usched_faults.Recovery.Fixed r -> Json.Int r
                     | Usched_faults.Recovery.Degree -> Json.String "degree" );
                   (* [Json.float infinity] is [Null]: JSON has no inf. *)
                   ("bandwidth", Json.float recovery.Usched_faults.Recovery.bandwidth);
                   ( "checkpoint_interval",
                     Json.float recovery.Usched_faults.Recovery.checkpoint_interval
                   );
                 ] );
         ]);
    Printf.printf
      "%s on %s: C_max = %.4f (lower bound %.4f, ratio <= %.4f)\n\
       replicas/task max %d, Mem_max %.4f\n"
      algo.Core.Two_phase.name file healthy lb (healthy /. lb)
      (Core.Placement.max_replication placement)
      (Core.Placement.memory_max placement ~sizes:(Model.Instance.sizes instance));
    (match topo with
    | None -> ()
    | Some t ->
        Printf.printf "topology: %d zones, replication transfer cost %.4f\n"
          (Model.Topology.zones t)
          (Core.Placement.replication_cost placement ~topology:t
             ~sizes:(Model.Instance.sizes instance)));
    if gantt then print_string (Usched_desim.Gantt.render schedule);
    print_string (Usched_desim.Timeline.render_stats schedule);
    (match speeds with
    | None -> ()
    | Some sp ->
        let replay =
          Usched_desim.Schedule.makespan
            (Usched_desim.Engine.run ~speeds:sp ~dispatch:policy instance
               realization
               ~placement:(Core.Placement.sets placement)
               ~order:(Model.Instance.lpt_order instance))
        in
        let slb =
          Core.Uniform.lower_bound ~speeds:sp
            (Model.Realization.actuals realization)
        in
        Printf.printf
          "machine speeds [%s]: replay C_max = %.4f (LB at speeds %.4f, \
           ratio <= %.4f)\n"
          (String.concat "; "
             (Array.to_list (Array.map (Printf.sprintf "%g") sp)))
          replay slb (replay /. slb));
    (match target_reliability with
    | None -> ()
    | Some target ->
        let profile = Model.Instance.failure_or_default instance in
        let sv =
          Experiments.Reliability_sweep.monte_carlo_survival
            ~domains:(Usched_parallel.Pool.recommended_domains ())
            ~seed ~profile placement
        in
        let bound = Core.Reliability.survival_bound instance placement in
        let status =
          if bound >= target then "MET (analytic bound)"
          else if sv.Experiments.Reliability_sweep.lo >= target then
            "MET (empirically)"
          else "MISSED"
        in
        Printf.printf
          "survival: P(no stranded task) ~ %.4f (95%%CI [%.4f, %.4f], %d \
           trials), analytic bound %.4f, target %g: %s\n"
          sv.Experiments.Reliability_sweep.point
          sv.Experiments.Reliability_sweep.lo
          sv.Experiments.Reliability_sweep.hi
          sv.Experiments.Reliability_sweep.trials bound target status;
        emit
          (Json.Obj
             [
               ("type", Json.String "summary");
               ("phase", Json.String "survival");
               ("target", Json.float target);
               ("survival_mc", Json.float sv.Experiments.Reliability_sweep.point);
               ("survival_lo", Json.float sv.Experiments.Reliability_sweep.lo);
               ("survival_hi", Json.float sv.Experiments.Reliability_sweep.hi);
               ("trials", Json.Int sv.Experiments.Reliability_sweep.trials);
               ("survival_bound", Json.float bound);
               ("met", Json.Bool (status <> "MISSED"));
             ]));
    (match band with
    | None -> ()
    | Some band ->
        (* Speed robustness of the committed placement: the adversary
           picks the worst in-band revelation of machine speeds, with the
           Monte-Carlo draws folded into its candidate set (so the
           adversarial ratio dominates every sampled one by
           construction); then the same adversarial revelation is
           replayed mid-run through the fault layer — machines start at
           their optimistic speeds and Slowdown events re-predict
           in-flight work. *)
        let mc_draws = 32 in
        let mc_rng = Usched_prng.Rng.create ~seed:(seed + 1) () in
        let draws =
          Array.init mc_draws (fun _ ->
              Model.Speed_band.sample band (Usched_prng.Rng.split mc_rng))
        in
        let a =
          Experiments.Speed_sweep.assess ~dispatch:policy ?speculation:speculate
            ~recovery ~domains:(Usched_parallel.Pool.recommended_domains ())
            ~draws instance realization placement band
        in
        let makespan_adv =
          Usched_desim.Schedule.makespan
            (Usched_desim.Engine.run ~speeds:a.adv_speeds ~dispatch:policy
               instance realization
               ~placement:(Core.Placement.sets placement)
               ~order:(Model.Instance.lpt_order instance))
        in
        let mc_mean =
          Array.fold_left ( +. ) 0.0 a.mc_ratios /. float_of_int mc_draws
        in
        let mc_max = Array.fold_left Float.max neg_infinity a.mc_ratios in
        Printf.printf
          "speed robustness over band %s:\n\
          \  adversarial revelation [%s]: C_max = %.4f, ratio vs \
           revealed-speed LB = %.4f\n\
          \  Monte-Carlo (%d draws): mean ratio %.4f, worst %.4f (dominated \
           by the adversary)\n\
          \  mid-run revelation at t=%.4f (fault-layer slowdowns): C_max = \
           %.4f\n"
          (Model.Speed_band.to_string band)
          (String.concat "; "
             (Array.to_list (Array.map (Printf.sprintf "%g") a.adv_speeds)))
          makespan_adv a.ratio_adv mc_draws mc_mean mc_max a.reveal_at
          a.makespan_reveal;
        emit
          (Json.Obj
             [
               ("type", Json.String "summary");
               ("phase", Json.String "speed_robustness");
               ("band", Json.String (Model.Speed_band.to_string band));
               ( "adv_speeds",
                 Json.List (Array.to_list (Array.map Json.float a.adv_speeds))
               );
               ("makespan_adv", Json.float makespan_adv);
               ("ratio_adv", Json.float a.ratio_adv);
               ("mc_draws", Json.Int mc_draws);
               ("mc_ratio_mean", Json.float mc_mean);
               ("mc_ratio_max", Json.float mc_max);
               ("reveal_at", Json.float a.reveal_at);
               ("makespan_reveal", Json.float a.makespan_reveal);
             ]));
    if policy <> Usched_desim.Dispatch.default then begin
      (* Same placement, same LPT order, only the dispatch rule differs —
         the ratio isolates the policy from the algorithm's own ordering. *)
      let replay dispatch =
        Usched_desim.Schedule.makespan
          (Usched_desim.Engine.run ?speeds ~dispatch instance realization
             ~placement:(Core.Placement.sets placement)
             ~order:(Model.Instance.lpt_order instance))
      in
      let pm = replay policy in
      Printf.printf "dispatch policy %s: replay C_max = %.4f (%.4fx default)\n"
        (Usched_desim.Dispatch.name policy)
        pm (pm /. replay Usched_desim.Dispatch.default)
    end;
    if tracing then begin
      (* Replay the placement through the engine under LPT order — the
         same replay the faulty path uses — with events and metrics on. *)
      emit
        (Json.Obj
           [ ("type", Json.String "phase"); ("name", Json.String "healthy") ]);
      let metrics = Metrics.create () in
      let replay, events =
        Usched_desim.Engine.run_traced ?speeds ~dispatch:policy ~metrics
          instance realization
          ~placement:(Core.Placement.sets placement)
          ~order:(Model.Instance.lpt_order instance)
      in
      List.iter (fun e -> emit (Usched_desim.Engine.event_json e)) events;
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
    let rec_active = Usched_faults.Recovery.is_active recovery in
    if stream then begin
      (* Open-system replay: same placement, FCFS (= task id) order,
         tasks revealed by the arrival process. Crash times are drawn
         over the whole busy period, not just the healthy makespan. *)
      let order = Array.init n (fun j -> j) in
      let arrivals =
        match Usched_desim.Arrival.generate arrival rng ~count:n with
        | a -> a
        | exception Invalid_argument msg ->
            Printf.eprintf "usched: --arrival: %s\n" msg;
            exit 2
      in
      let max_arrival = Array.fold_left Float.max 0.0 arrivals in
      let faults =
        if fail_rate > 0.0 then
          Usched_faults.Trace.random_crashes rng ~m ~p:fail_rate
            ~horizon:(max_arrival +. healthy)
        else Usched_faults.Trace.empty ~m
      in
      if tracing then
        emit
          (Json.Obj
             [ ("type", Json.String "phase"); ("name", Json.String "stream") ]);
      let metrics = if tracing then Metrics.create () else Metrics.disabled in
      let so =
        if tracing then begin
          let so, events =
            Usched_desim.Engine.run_stream_traced ?speeds
              ?speculation:speculate ~dispatch:policy ~recovery ~metrics
              ~faults instance realization
              ~arrivals
              ~placement:(Core.Placement.sets placement)
              ~order
          in
          List.iter (fun e -> emit (Usched_desim.Engine.event_json e)) events;
          emit
            (Json.Obj
               [
                 ("type", Json.String "metrics");
                 ("phase", Json.String "stream");
                 ("metrics", Metrics.to_json (Metrics.snapshot metrics));
               ]);
          so
        end
        else
          Usched_desim.Engine.run_stream ?speeds ?speculation:speculate
            ~dispatch:policy ~recovery ~metrics ~faults instance realization
            ~arrivals
            ~placement:(Core.Placement.sets placement)
            ~order
      in
      let outcome = so.Usched_desim.Engine.outcome in
      let lat = so.Usched_desim.Engine.latencies in
      let q p =
        if Array.length lat = 0 then Float.nan
        else Usched_stats.Quantile.quantile lat ~q:p
      in
      let mean =
        if Array.length lat = 0 then Float.nan
        else
          Array.fold_left ( +. ) 0.0 lat /. float_of_int (Array.length lat)
      in
      let drain = outcome.Usched_desim.Engine.makespan in
      let throughput =
        if drain > 0.0 then
          float_of_int outcome.Usched_desim.Engine.completed /. drain
        else 0.0
      in
      let utilization =
        Experiments.Stream_sweep.utilization ~m realization outcome
      in
      Printf.printf
        "\nstream replay (%s, offered load %.3f%s%s): completed %d/%d%s\n\
         drain time %.4f, latency p50 %.4f p95 %.4f p99 %.4f (mean %.4f)\n\
         throughput %.4f tasks/unit, utilization %.4f, wasted work %.4f\n"
        (Usched_desim.Arrival.describe arrival)
        (Usched_desim.Arrival.mean_rate arrival
        /. (float_of_int m
           /. (Array.fold_left ( +. ) 0.0 (Model.Instance.ests instance)
              /. float_of_int n)))
        (if fail_rate > 0.0 then Printf.sprintf ", fail-rate %g" fail_rate
         else "")
        (match speculate with
        | None -> ""
        | Some b -> Printf.sprintf ", speculation beta=%g" b)
        outcome.Usched_desim.Engine.completed n
        (match outcome.Usched_desim.Engine.stranded with
        | [] -> ""
        | ids ->
            Printf.sprintf " (stranded: %s)"
              (String.concat "; " (List.map string_of_int ids)))
        drain (q 0.5) (q 0.95) (q 0.99) mean throughput utilization
        outcome.Usched_desim.Engine.wasted;
      if gantt && Array.length lat > 0 then begin
        print_string "latency distribution:\n";
        Format.printf "%a" Usched_stats.Histogram.pp
          (Usched_stats.Histogram.of_data ~bins:10 lat)
      end;
      emit
        (Json.Obj
           [
             ("type", Json.String "summary");
             ("phase", Json.String "stream");
             ("arrival", Json.String (Usched_desim.Arrival.describe arrival));
             ("completed", Json.Int outcome.Usched_desim.Engine.completed);
             ( "stranded",
               Json.Int (List.length outcome.Usched_desim.Engine.stranded) );
             ("makespan", Json.float drain);
             ("p50", Json.float (q 0.5));
             ("p95", Json.float (q 0.95));
             ("p99", Json.float (q 0.99));
             ("mean_latency", Json.float mean);
             ("throughput", Json.float throughput);
             ("utilization", Json.float utilization);
             ("wasted", Json.float outcome.Usched_desim.Engine.wasted);
           ])
    end
    else if fail_rate > 0.0 || speculate <> None || rec_active then begin
      let faults =
        Usched_faults.Trace.random_crashes rng ~m ~p:fail_rate ~horizon:healthy
      in
      (if tracing then
         emit
           (Json.Obj
              [ ("type", Json.String "phase"); ("name", Json.String "faulty") ]));
      (* Live metrics whenever recovery is on: the summary below reads
         transfer/resume counters out of the outcome snapshot. *)
      let metrics =
        if tracing || rec_active then Metrics.create () else Metrics.disabled
      in
      let outcome, events =
        Usched_desim.Engine.run_faulty_traced ?speeds ?speculation:speculate
          ~dispatch:policy ~recovery ~metrics instance realization ~faults
          ~placement:(Core.Placement.sets placement)
          ~order:(Model.Instance.lpt_order instance)
      in
      if tracing then begin
        List.iter (fun e -> emit (Usched_desim.Engine.event_json e)) events;
        emit (Usched_desim.Engine.outcome_json outcome)
      end;
      Printf.printf
        "\nfaulty replay (fail-rate %g%s): crashed machines [%s]\n\
         completed %d/%d tasks%s, effective C_max = %.4f (%.2fx healthy), \
         wasted work %.4f\n"
        fail_rate
        (match speculate with
        | None -> ""
        | Some b -> Printf.sprintf ", speculation beta=%g" b)
        (String.concat "; "
           (List.map string_of_int (Usched_faults.Trace.crashed faults)))
        outcome.Usched_desim.Engine.completed
        (Model.Instance.n instance)
        (match outcome.Usched_desim.Engine.stranded with
        | [] -> ""
        | ids ->
            Printf.sprintf " (stranded: %s)"
              (String.concat "; " (List.map string_of_int ids)))
        outcome.Usched_desim.Engine.makespan
        (outcome.Usched_desim.Engine.makespan /. healthy)
        outcome.Usched_desim.Engine.wasted;
      if rec_active then begin
        let counter name =
          match Metrics.find outcome.Usched_desim.Engine.metrics name with
          | Some (Metrics.Counter c) -> c
          | _ -> 0
        in
        Printf.printf
          "recovery %s: %d re-replication(s), %d checkpoint resume(s)\n"
          (Format.asprintf "%a" Usched_faults.Recovery.pp recovery)
          (counter "engine.rereplications")
          (counter "engine.checkpoint_resumes")
      end;
      if gantt then
        match Usched_desim.Engine.outcome_schedule ~m outcome with
        | Some faulty -> print_string (Usched_desim.Gantt.render faulty)
        | None -> ()
    end;
    match trace_path with
    | Some path -> Printf.printf "[trace] wrote %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run a two-phase algorithm on an instance file.")
    Term.(
      const run $ file $ algo $ seed $ gantt $ fail_rate $ speculate $ recover
      $ detect_latency $ bandwidth $ checkpoint $ target_reliability $ speeds
      $ speed_band $ topology $ policy $ stream $ arrival $ trace)

let strategies_cmd =
  let run () =
    print_endline Core.Strategy.grammar;
    print_newline ();
    print_endline "default scenario-selection portfolio at m=6:";
    List.iter
      (fun spec ->
        Printf.printf "  %-16s %s\n"
          (Core.Strategy.to_string spec)
          (Core.Strategy.name spec))
      (Core.Strategy.default_portfolio ~m:6)
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:"List the placement-strategy catalog (--algo grammar).")
    Term.(const run $ const ())

let minimax_cmd =
  let m = Arg.(value & opt int 3 & info [ "m"; "machines" ] ~doc:"Machines.") in
  let n = Arg.(value & opt int 9 & info [ "n"; "tasks" ] ~doc:"Identical tasks.") in
  let alpha = Arg.(value & opt float 2.0 & info [ "alpha" ] ~doc:"Uncertainty factor.") in
  let run m n alpha =
    let r = Core.Minimax.identical_minimax ~m ~n ~alpha in
    Printf.printf
      "exact minimax on %d identical tasks, m=%d, alpha=%g:\n\
      \  value %.6f (limit bound %.6f, Th2 guarantee %.6f)\n\
      \  optimal partition: %s\n"
      n m alpha r.Core.Minimax.value
      (Core.Guarantees.no_replication_lower_bound ~m ~alpha)
      (Core.Guarantees.lpt_no_choice ~m ~alpha)
      (String.concat "+"
         (Array.to_list (Array.map string_of_int r.Core.Minimax.partition)))
  in
  Cmd.v
    (Cmd.info "minimax"
       ~doc:"Exact minimax value of the unreplicated game on identical tasks.")
    Term.(const run $ m $ n $ alpha)

let main =
  let doc = "reproduction of 'Replicated Data Placement for Uncertain Scheduling'" in
  Cmd.group
    (Cmd.info "usched" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; gen_cmd; solve_cmd; strategies_cmd; minimax_cmd ]

let () = exit (Cmd.eval main)
