(* Integration tests: the experiment harness end to end. *)

module Experiments = Usched_experiments
module Runner = Usched_experiments.Runner
module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Uncertainty = Usched_model.Uncertainty
module Summary = Usched_stats.Summary
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

let tiny_config =
  { Runner.default_config with reps = 4; domains = 2; exact_n = 10 }

let registry_ids_unique () =
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  Alcotest.(check int) "no duplicates"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let registry_find () =
  checkb "fig1 exists" true (Experiments.Registry.find "fig1" <> None);
  checkb "nonsense missing" true (Experiments.Registry.find "zzz" = None)

let registry_covers_all_paper_artifacts () =
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Experiments.Registry.find id <> None))
    [ "fig1"; "fig2"; "tab1"; "fig3"; "fig45"; "tab2"; "fig6" ]

let registry_covers_extensions () =
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Experiments.Registry.find id <> None))
    [
      "ablation-phase2";
      "ablation-adversary";
      "ablation-selective";
      "ablation-budget";
      "ablation-errors";
      "alpha-sweep";
      "fault-tolerance";
      "hetero";
      "lb-search";
      "portfolio";
    ]

let opt_estimate_exact_for_small () =
  let _, exact = Runner.opt_estimate tiny_config ~m:2 [| 1.0; 2.0; 3.0 |] in
  checkb "small is exact" true exact;
  let _, exact =
    Runner.opt_estimate tiny_config ~m:2 (Array.make 50 1.0)
  in
  checkb "large falls back to bounds" false exact

let opt_estimate_sound () =
  let value, exact = Runner.opt_estimate tiny_config ~m:2 [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  checkb "exact" true exact;
  close "optimum" 6.0 value

let ratio_at_least_one () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.5)
      [| 4.0; 3.0; 2.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let makespan =
    Core.Two_phase.makespan
      Core.Strategy.(build (Full_replication Lpt) ~m:3)
      instance realization
  in
  let opt, _ = Runner.opt_estimate tiny_config ~m:3 (Realization.actuals realization) in
  checkb "ratio >= 1" true (makespan /. opt >= 1.0 -. 1e-9)

let random_sweep_reproducible () =
  let sweep () =
    Runner.random_sweep tiny_config
      ~algo:Core.Strategy.(build (No_replication Lpt) ~m:3)
      ~spec:(Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~realize:(fun instance rng -> Realization.uniform_factor instance rng)
      ~n:8 ~m:3 ~alpha:1.5
  in
  let a = sweep () and b = sweep () in
  Alcotest.(check int) "counts" (Summary.count a.Runner.summary)
    (Summary.count b.Runner.summary);
  close "same mean (deterministic streams)" (Summary.mean a.Runner.summary)
    (Summary.mean b.Runner.summary);
  close "same worst" a.Runner.worst b.Runner.worst

let random_sweep_respects_reps () =
  let sweep =
    Runner.random_sweep tiny_config
      ~algo:Core.Strategy.(build (Full_replication Ls) ~m:2)
      ~spec:(Workload.Identical 1.0)
      ~realize:(fun instance rng -> Realization.extremes ~p_high:0.5 instance rng)
      ~n:6 ~m:2 ~alpha:2.0
  in
  Alcotest.(check int) "one ratio per rep" tiny_config.Runner.reps
    (Summary.count sweep.Runner.summary)

let sweep_ratios_bounded_by_guarantee () =
  let m = 3 and alpha = 2.0 in
  let sweep =
    Runner.random_sweep
      { tiny_config with reps = 20 }
      ~algo:Core.Strategy.(build (Full_replication Ls) ~m)
      ~spec:(Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~realize:(fun instance rng -> Realization.uniform_factor instance rng)
      ~n:9 ~m ~alpha
  in
  checkb "worst within Graham bound" true
    (sweep.Runner.worst <= Core.Guarantees.list_scheduling ~m +. 1e-9)

let adversarial_ratio_sound () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0)
      (Array.make 6 1.0)
  in
  let worst =
    Runner.adversarial_ratio tiny_config
      Core.Strategy.(build (No_replication Lpt) ~m:2)
      instance
  in
  checkb "above 1" true (worst >= 1.0 -. 1e-9);
  checkb "below Theorem 2" true
    (worst <= Core.Guarantees.lpt_no_choice ~m:2 ~alpha:2.0 +. 1e-9)

let quick_config_caps_reps () =
  let q = Runner.quick { Runner.default_config with reps = 100 } in
  Alcotest.(check int) "capped at 5" 5 q.Runner.reps

let csv_export_writes_files () =
  let dir = Filename.temp_file "usched" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let config = { tiny_config with Runner.csv_dir = Some dir } in
      Runner.maybe_csv config ~name:"probe" ~header:[ "a"; "b" ]
        [ [ "1"; "2" ] ];
      checkb "file created" true
        (Sys.file_exists (Filename.concat dir "probe.csv")));
  (* Without csv_dir nothing is written anywhere. *)
  Runner.maybe_csv tiny_config ~name:"probe" ~header:[ "a" ] [ [ "1" ] ];
  checkb "no-op without dir" true true

(* A fresh directory for one test, removed (one level deep) afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "usched" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ring_placement_nested () =
  let m = 5 and n = 7 in
  let sets k = Helpers.task_sets (Core.Placement.sets (Runner.ring_placement ~m ~n ~k)) in
  Array.iteri
    (fun j set ->
      Alcotest.(check (list int))
        (Printf.sprintf "task %d ring" j)
        (List.sort compare [ j mod m; (j + 1) mod m; (j + 2) mod m ])
        (Helpers.elements set))
    (sets 3);
  for k = 1 to m - 1 do
    checkb
      (Printf.sprintf "k=%d rings nest in k=%d" k (k + 1))
      true
      (Array.for_all2 Usched_model.Bitset.subset (sets k) (sets (k + 1)))
  done;
  checkb "k = m is full replication" true
    (Array.for_all (fun s -> Usched_model.Bitset.cardinal s = m) (sets m))

module Engine = Usched_desim.Engine

let manifest_records_specs () =
  with_temp_dir (fun dir ->
      let config = Runner.fresh_metrics { tiny_config with Runner.csv_dir = Some dir } in
      Runner.record_spec config (Core.Strategy.Budgeted 2);
      ignore (Runner.strategy config ~m:4 Core.Strategy.(Group { order = Ls; k = 2 }));
      Runner.record_spec config (Core.Strategy.Budgeted 2);
      Runner.maybe_manifest config ~id:"probe" ~title:"Probe" ~wall_time_s:0.5;
      let json =
        Usched_report.Json.of_string_exn
          (read_file (Filename.concat dir "probe.manifest.json"))
      in
      let field name = Usched_report.Json.member name json in
      checkb "experiment id" true (field "experiment" = Some (Usched_report.Json.String "probe"));
      checkb "seed" true (field "seed" = Some (Usched_report.Json.Int tiny_config.Runner.seed));
      checkb "specs deduplicated in first-use order" true
        (field "algo_specs"
        = Some
            (Usched_report.Json.List
               (List.map
                  (fun s -> Usched_report.Json.String s)
                  [
                    Core.Strategy.to_string (Core.Strategy.Budgeted 2);
                    Core.Strategy.(to_string (Group { order = Ls; k = 2 }));
                  ])));
      checkb "fresh_metrics starts a new spec record" true
        (!((Runner.fresh_metrics config).Runner.algo_specs) = []);
      checkb "and leaves the old one alone" true
        (List.length !(config.Runner.algo_specs) = 2));
  (* Without a CSV directory nothing is written. *)
  Runner.maybe_manifest tiny_config ~id:"probe" ~title:"Probe" ~wall_time_s:0.5

let generate_workload () =
  let rng () = Rng.create ~seed:13 () in
  let instance, realization = Runner.generate ~n:40 ~m:4 ~alpha:2.0 (rng ()) in
  Alcotest.(check int) "n" 40 (Instance.n instance);
  Alcotest.(check int) "m" 4 (Instance.m instance);
  checkb "estimates uniform on [1, 10]" true
    (Array.for_all (fun e -> e >= 1.0 && e <= 10.0) (Instance.ests instance));
  checkb "actuals admissible" true
    (Array.for_all
       (fun j ->
         Uncertainty.admissible (Instance.alpha instance) ~est:(Instance.est instance j)
           ~actual:(Realization.actual realization j))
       (Array.init 40 Fun.id));
  let instance', realization' = Runner.generate ~n:40 ~m:4 ~alpha:2.0 (rng ()) in
  checkb "deterministic per generator" true
    (Instance.ests instance = Instance.ests instance'
    && Realization.actuals realization = Realization.actuals realization')

(* Cheap experiments must run end-to-end without raising. The heavyweight
   ones (tab1, fig3) are exercised by the bench harness. *)
let cheap_experiments_run () =
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.failf "experiment %s missing" id
      | Some e -> e.Experiments.Registry.run tiny_config)
    [ "fig2"; "fig45"; "fig6"; "fault-tolerance"; "hetero" ]

let fig1_theoretical_ratio_monotone () =
  let m = 6 and alpha = 2.0 in
  let r lambda = Experiments.Fig1.theoretical_ratio_at_lambda ~m ~alpha ~lambda in
  checkb "grows with lambda" true (r 1 < r 2 && r 2 < r 10 && r 10 < r 100);
  checkb "bounded by the limit" true
    (r 1000 < Core.Guarantees.no_replication_lower_bound ~m ~alpha)

let example_instance_is_mixed () =
  let instance = Experiments.Fig45.example_instance () in
  checkb "has time-heavy tasks" true
    (Array.exists (fun t -> Usched_model.Task.est t > 4.0) (Instance.tasks instance));
  checkb "has memory-heavy tasks" true
    (Array.exists (fun t -> Usched_model.Task.size t > 4.0) (Instance.tasks instance))

module Speed_band = Usched_model.Speed_band

let speed_assessment () =
  let instance =
    Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.0)
      [| 5.0; 4.0; 4.0; 3.0; 2.0; 2.0; 1.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Core.Placement.full ~m:4 ~n:8 in
  let band = Speed_band.uniform ~m:4 ~lo:0.5 ~hi:2.0 in
  let rng = Rng.create ~seed:3 () in
  let draws = Array.init 3 (fun _ -> Speed_band.sample band rng) in
  let a =
    Experiments.Speed_sweep.assess ~domains:1 ~draws instance realization placement band
  in
  Alcotest.(check int) "one ratio per draw" 3 (Array.length a.mc_ratios);
  checkb "adversary stays in the band" true (Speed_band.contains band a.adv_speeds);
  checkb "adversary dominates every draw" true
    (Array.for_all (fun r -> r <= a.ratio_adv +. 1e-12) a.mc_ratios);
  checkb "revelation mid-run" true (a.reveal_at > 0.0 && Float.is_finite a.makespan_reveal);
  (* Known unit speeds: every revelation is the same, and revealing
     them mid-run changes nothing. *)
  let nominal = Speed_band.nominal ~m:4 in
  let d =
    Experiments.Speed_sweep.assess ~domains:1
      ~draws:[| Array.make 4 1.0 |]
      instance realization placement nominal
  in
  close "degenerate draw = adversary" d.ratio_adv d.mc_ratios.(0);
  close "degenerate revelation = plain replay"
    (Usched_desim.Schedule.makespan
       (Engine.run instance realization ~placement:(Core.Placement.sets placement)
          ~order:(Instance.lpt_order instance)))
    d.makespan_reveal

let stream_utilization () =
  let instance = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 2.0; 2.0 |] in
  let realization = Realization.exact instance in
  let run placement faults =
    Engine.run_faulty instance realization ~placement ~order:[| 0; 1 |]
      ~faults:(Usched_faults.Trace.of_events ~m:2 faults)
  in
  let utilization = Experiments.Stream_sweep.utilization ~m:2 realization in
  let both = Helpers.holders (Array.init 2 (fun _ -> Usched_model.Bitset.full 2)) in
  close "both machines busy throughout" 1.0 (utilization (run both []));
  let serial = Helpers.holders (Array.init 2 (fun _ -> Usched_model.Bitset.singleton 2 0)) in
  close "one of two machines busy" 0.5 (utilization (run serial []));
  (* Machine 0 crashes at 1: task 0's first copy is wasted work and
     counts as consumed machine time. *)
  let crash = { Usched_faults.Fault.machine = 0; time = 1.0; kind = Usched_faults.Fault.Crash } in
  let outcome = run both [ crash ] in
  close "wasted work counts"
    ((outcome.Engine.wasted +. 4.0) /. (2.0 *. outcome.Engine.makespan))
    (utilization outcome);
  close "nothing ran" 0.0 (utilization (run serial [ { crash with time = 0.0 } ]))

let () =
  Alcotest.run "integration"
    [
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick registry_ids_unique;
          Alcotest.test_case "find" `Quick registry_find;
          Alcotest.test_case "covers paper artifacts" `Quick
            registry_covers_all_paper_artifacts;
          Alcotest.test_case "covers extensions" `Quick registry_covers_extensions;
        ] );
      ( "runner",
        [
          Alcotest.test_case "opt estimate switch" `Quick opt_estimate_exact_for_small;
          Alcotest.test_case "opt estimate value" `Quick opt_estimate_sound;
          Alcotest.test_case "ratio >= 1" `Quick ratio_at_least_one;
          Alcotest.test_case "sweeps reproducible" `Quick random_sweep_reproducible;
          Alcotest.test_case "sweep repetitions" `Quick random_sweep_respects_reps;
          Alcotest.test_case "sweep within guarantee" `Quick
            sweep_ratios_bounded_by_guarantee;
          Alcotest.test_case "adversarial ratio" `Quick adversarial_ratio_sound;
          Alcotest.test_case "quick config" `Quick quick_config_caps_reps;
          Alcotest.test_case "csv export" `Quick csv_export_writes_files;
          Alcotest.test_case "ring placement" `Quick ring_placement_nested;
          Alcotest.test_case "manifest specs" `Quick manifest_records_specs;
          Alcotest.test_case "replay workload" `Quick generate_workload;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "cheap experiments run" `Slow cheap_experiments_run;
          Alcotest.test_case "fig1 ratio curve" `Quick fig1_theoretical_ratio_monotone;
          Alcotest.test_case "fig45 instance" `Quick example_instance_is_mixed;
          Alcotest.test_case "speed assessment" `Quick speed_assessment;
          Alcotest.test_case "stream utilization" `Quick stream_utilization;
        ] );
    ]
