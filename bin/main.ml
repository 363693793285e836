(* usched: command-line driver for the experiment harness and a small
   workbench over instance files (generate / solve / minimax). *)

open Cmdliner
module Experiments = Usched_experiments
module Core = Usched_core
module Model = Usched_model

let ( let* ) = Result.bind

let flag name = Result.map_error (Printf.sprintf "%s: %s" name)

let flag_opt name parse = function
  | None -> Ok None
  | Some spec -> Result.map Option.some (flag name (parse spec))

(* Every usage error found past cmdliner leaves through here: the
   message on stderr, exit code 2. *)
let exit_on_error = function
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "usched: %s\n" msg;
      exit 2

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
        exit_on_error
          (match Experiments.Registry.find id with
          | Some e -> Ok (Experiments.Registry.execute config e)
          | None ->
              Error
                (Printf.sprintf "unknown experiment %S; try 'usched list'" id)))
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

(* A converter over a library grammar: its [of_string] parses and
   validates (the strategy catalog, for one, rejects NaN deltas and zero
   group counts), and errors carry the grammar. *)
let grammar_conv ~docv of_string to_string =
  Arg.conv' ~docv
    (of_string, fun ppf v -> Format.pp_print_string ppf (to_string v))

(* Numbers on the command line follow the spec grammars' lexical rule:
   a plain decimal or inf, no blanks, underscores or hexadecimal. *)
let number =
  grammar_conv ~docv:"NUMBER"
    Model.Spec_text.(read Number "value")
    Model.Spec_text.float_to_string

let numbers =
  grammar_conv ~docv:"NUMBERS"
    Model.Spec_text.(read (List (',', Number)) "value")
    (fun l -> String.concat "," (List.map Model.Spec_text.float_to_string l))

let gen_cmd =
  let spec =
    Arg.(value & opt string "uniform:1:10"
         & info [ "workload" ] ~docv:"SPEC" ~doc:"Workload family, e.g. uniform:1:10.")
  in
  let n = Arg.(value & opt int 20 & info [ "n"; "tasks" ] ~doc:"Number of tasks.") in
  let m = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~doc:"Number of machines.") in
  let alpha =
    Arg.(value & opt number 1.5 & info [ "alpha" ] ~doc:"Uncertainty factor (>= 1).")
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
    exit_on_error
    @@
    let need name ok expect =
      if ok then Ok () else Error (Printf.sprintf "%s: must be %s" name expect)
    in
    let* () =
      need "--machines"
        (m >= 1 && m <= Model.Instance.max_machines)
        (Printf.sprintf "in [1, %d]" Model.Instance.max_machines)
    in
    let* () = need "--tasks" (n >= 1) ">= 1" in
    let* () =
      need "--alpha" (Float.is_finite alpha && alpha >= 1.0) "finite and >= 1"
    in
    let* spec = flag "--workload" (Model.Workload.of_spec spec) in
    let* failure = flag_opt "--failp" (Model.Failure.of_spec ~m) failp in
    let* band = flag_opt "--speed-band" (Model.Speed_band.of_spec ~m) speed_band in
    let* topo = flag_opt "--topology" (Model.Topology.of_spec ~m) topology in
    let instance =
      Model.Workload.generate spec ~n ~m
        ~alpha:(Model.Uncertainty.alpha alpha)
        (Usched_prng.Rng.create ~seed ())
    in
    let instance = Model.Instance.with_failure instance failure in
    let instance = Model.Instance.with_speed_band instance band in
    Model.Io.save_instance ~path:out (Model.Instance.with_topology instance topo);
    let note f = Option.fold ~none:"" ~some:f in
    Printf.printf "wrote %s (%d tasks, %d machines, alpha=%g%s%s%s)\n" out n m
      alpha
      (note (fun f -> ", failure profile " ^ Model.Failure.to_string f) failure)
      (note (fun b -> ", speed band " ^ Model.Speed_band.to_string b) band)
      (note
         (fun t ->
           let z = Model.Topology.zones t in
           Printf.sprintf ", topology %d zone%s" z (if z = 1 then "" else "s"))
         topo);
    Ok ()
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic instance file.")
    Term.(
      const run $ spec $ n $ m $ alpha $ seed $ failp $ speed_band $ topology
      $ out)

let strategy_conv =
  grammar_conv ~docv:"ALGO" Core.Strategy.of_string Core.Strategy.to_string

let policy_conv =
  grammar_conv ~docv:"POLICY" Usched_desim.Dispatch.spec_of_string
    Usched_desim.Dispatch.name

(* --recover takes a replica count or the keyword "degree" (restore each
   task to its phase-1 replication degree). *)
let recover_conv =
  grammar_conv ~docv:"R" Usched_faults.Recovery.target_of_string
    Usched_faults.Recovery.target_to_string

let arrival_conv =
  grammar_conv ~docv:"SPEC" Usched_desim.Arrival.of_string
    Usched_desim.Arrival.describe

let solve_cmd =
  let d = Experiments.Pipeline.default in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Instance file (see 'gen').")
  in
  let algo =
    Arg.(value & opt strategy_conv d.algo
         & info [ "algo" ] ~docv:"ALGO"
             ~doc:"Two-phase algorithm to run, e.g. ls-group:2 or sabo:0.5. \
                   Pass 'help' (or see 'usched strategies') for the full \
                   grammar.")
  in
  let seed = Arg.(value & opt int d.seed & info [ "seed" ] ~doc:"Realization seed.") in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print the Gantt chart.") in
  let fail_rate =
    Arg.(value & opt number d.fail_rate
         & info [ "fail-rate" ] ~docv:"P"
             ~doc:"Also replay the schedule with each machine crashing \
                   mid-run with probability $(docv) (crash times uniform \
                   over the healthy makespan).")
  in
  let speculate =
    Arg.(value & opt (some number) d.speculate
         & info [ "speculate" ] ~docv:"BETA"
             ~doc:"Enable speculative re-execution in the faulty replay: an \
                   idle replica holder may start a backup copy once a task \
                   runs past $(docv) times its estimate.")
  in
  let recover =
    Arg.(value & opt recover_conv d.recover
         & info [ "recover" ] ~docv:"R"
             ~doc:"Online re-replication in the faulty replay: when failures \
                   drop a task's live replica count below $(docv), copy its \
                   data from a surviving holder to a healthy machine. Pass \
                   'degree' to restore each task to its own phase-1 \
                   replication degree (for variable-degree placements such \
                   as reliability:TARGET).")
  in
  let detect_latency =
    Arg.(value & opt number d.detect_latency
         & info [ "detect-latency" ] ~docv:"LATENCY"
             ~doc:"Failure-detection latency: the scheduler only learns of a \
                   failure $(docv) time units after it happens (0 = \
                   instantaneous detection).")
  in
  let bandwidth =
    Arg.(value & opt number d.bandwidth
         & info [ "bandwidth" ] ~docv:"BW"
             ~doc:"Re-replication bandwidth in data-size units per time unit \
                   (default: infinite, i.e. instantaneous copies).")
  in
  let checkpoint =
    Arg.(value & opt number d.checkpoint
         & info [ "checkpoint" ] ~docv:"C"
             ~doc:"Checkpoint interval in work units: a copy killed by an \
                   outage resumes from its last checkpoint when the machine \
                   rejoins (0 = restart from scratch).")
  in
  let target_reliability =
    Arg.(value & opt (some number) d.target_reliability
         & info [ "target-reliability" ] ~docv:"T"
             ~doc:"Check the placement against a survival target: estimate \
                   P(no stranded task) by Monte-Carlo over the instance's \
                   machine failure profile (or the uniform default), print \
                   it next to the analytic union bound, and report whether \
                   $(docv) is met. Pairs with --algo reliability:$(docv).")
  in
  let speeds =
    Arg.(value & opt (some numbers) (Option.map Array.to_list d.speeds)
         & info [ "speeds" ] ~docv:"SPEEDS"
             ~doc:"Machine speeds for every engine replay (healthy, faulty, \
                   stream): a comma-separated list of M finite speeds > 0. A \
                   task with actual processing requirement p occupies machine \
                   i for p / SPEEDS[i] — the uniform (related) machines \
                   extension. Default: all 1.")
  in
  let speed_band =
    Arg.(value & opt (some string) d.speed_band
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
    Arg.(value & opt (some string) d.topology
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Network topology override for transfer costs (uniform, \
                   zones:Z:BW[:LAT], or a serialized ZONES|BW|LAT form), \
                   replacing any topology in the instance header. Replication \
                   and recovery transfers between zones are charged data-size \
                   / bandwidth + latency; the engine stages a task's data \
                   before its first copy on each machine.")
  in
  let policy =
    Arg.(value & opt policy_conv d.policy
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:(Printf.sprintf
                     "Dispatch policy for the engine's placement replays \
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
    Arg.(value & opt arrival_conv d.arrival
         & info [ "arrival" ] ~docv:"SPEC"
             ~doc:(Printf.sprintf
                     "Arrival process for --stream: %s. Trace files hold one \
                      arrival instant per line (blank lines and # comments \
                      skipped)."
                     Usched_desim.Arrival.grammar))
  in
  let trace =
    Arg.(value & opt (some string) d.trace
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Serialize the run as JSONL (one JSON object per line): a \
                   meta record, every engine event of an LPT-order replay of \
                   the placement (and of the faulty or stream replay, if \
                   any), metrics snapshots, and summary records. Parent directories are \
                   created as needed.")
  in
  let run file algo seed gantt fail_rate speculate recover detect_latency
      bandwidth checkpoint target_reliability speeds speed_band topology policy
      stream arrival trace =
    exit_on_error
      (Experiments.Pipeline.run
         {
           algo; seed; gantt; fail_rate; speculate; recover; detect_latency;
           bandwidth; checkpoint; target_reliability;
           speeds = Option.map Array.of_list speeds;
           speed_band; topology; policy; stream; arrival; trace;
         }
         file)
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
  let alpha = Arg.(value & opt number 2.0 & info [ "alpha" ] ~doc:"Uncertainty factor.") in
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
