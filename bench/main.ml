(* Bench harness: times the implementation with Bechamel. It only
   measures; the paper's tables and figures come from `usched all`.

   Run with: dune exec bench/main.exe
   Flags:
     --quick          shorten the measurement quota (CI preset)
     --json PATH      also write the results as a machine-readable
                      BENCH_*.json report (name -> ns/run + minor allocs/run),
                      comparable against the committed BENCH_baseline.json
     --filter SUBSTR  run only the bench rows whose name contains SUBSTR
                      (case-sensitive; repeatable — a row matching any
                      filter runs) *)

open Bechamel
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Rng = Usched_prng.Rng
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Arrival = Usched_desim.Arrival
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery

let bench_instance ~n ~m =
  Workload.generate
    (Workload.Uniform { lo = 1.0; hi = 100.0 })
    ~n ~m
    ~alpha:(Uncertainty.alpha 2.0)
    (Rng.create ~seed:7 ())

let benches () =
  let instance = bench_instance ~n:1000 ~m:210 in
  let realization =
    Realization.uniform_factor instance (Rng.create ~seed:8 ())
  in
  let small = bench_instance ~n:14 ~m:4 in
  let small_actuals =
    Realization.actuals (Realization.uniform_factor small (Rng.create ~seed:9 ()))
  in
  let big_weights = Instance.ests (bench_instance ~n:10_000 ~m:100) in
  let mixed =
    Workload.generate
      (Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~size_spec:(Workload.Inverse 5.0) ~n:1000 ~m:210
      ~alpha:(Uncertainty.alpha 1.5)
      (Rng.create ~seed:10 ())
  in
  let mixed_realization =
    Realization.uniform_factor mixed (Rng.create ~seed:12 ())
  in
  let rng = Rng.create ~seed:11 () in
  (* Dispatch-layer fixtures: the alternative policies rescan eligible
     tasks per decision (no cursor amortization), so they get a smaller
     instance; the default policy also runs at full size to expose any
     dispatch-layer overhead against the committed baseline. *)
  let disp = bench_instance ~n:300 ~m:32 in
  let disp_realization =
    Realization.uniform_factor disp (Rng.create ~seed:15 ())
  in
  let disp_sets =
    Core.Placement.sets
      ((Strategy.build Strategy.(Group { order = Ls; k = 4 }) ~m:32).Core.Two_phase
         .phase1 disp)
  in
  let disp_order = Instance.lpt_order disp in
  (* Every named algorithm below goes through the strategy catalog — the
     benched code path is the same one the CLI and experiments use. *)
  let strat ~m spec = Strategy.build spec ~m in
  let lpt_no_choice = strat ~m:210 Strategy.(No_replication Lpt) in
  let ls_group30 = strat ~m:210 Strategy.(Group { order = Ls; k = 30 }) in
  let ls_group42 = strat ~m:210 Strategy.(Group { order = Ls; k = 42 }) in
  let ls_group2 = strat ~m:210 Strategy.(Group { order = Ls; k = 2 }) in
  let lpt_no_restriction = strat ~m:210 Strategy.(Full_replication Lpt) in
  let abo_1 = strat ~m:210 (Strategy.Abo 1.0) in
  let budgeted_3 = strat ~m:210 (Strategy.Budgeted 3) in
  [
    (* Phase-1 placement algorithms (n=1000, m=210). *)
    Test.make ~name:"phase1/lpt-no-choice (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore (lpt_no_choice.Core.Two_phase.phase1 instance)));
    Test.make ~name:"phase1/ls-group k=30 (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore (ls_group30.Core.Two_phase.phase1 instance)));
    Test.make ~name:"phase1/sbo-split (n=1k,m=210)"
      (Staged.stage (fun () -> ignore (Core.Sbo.split ~delta:1.0 mixed)));
    (* Full two-phase pipelines. *)
    Test.make ~name:"two-phase/lpt-no-restriction (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore
             (Core.Two_phase.makespan lpt_no_restriction instance realization)));
    Test.make ~name:"two-phase/ls-group k=30 (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore (Core.Two_phase.makespan ls_group30 instance realization)));
    Test.make ~name:"two-phase/abo delta=1 (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore (Core.Two_phase.makespan abo_1 mixed mixed_realization)));
    Test.make ~name:"two-phase/budgeted k=3 (n=1k,m=210)"
      (Staged.stage (fun () ->
           ignore (Core.Two_phase.makespan budgeted_3 instance realization)));
    (* Optimum machinery. *)
    Test.make ~name:"opt/branch-and-bound (n=14,m=4)"
      (Staged.stage (fun () -> ignore (Core.Opt.solve ~m:4 small_actuals)));
    Test.make ~name:"opt/dual-approx eps=1/3 (n=14,m=4)"
      (Staged.stage (fun () ->
           ignore (Core.Dual_approx.makespan ~m:4 small_actuals)));
    Test.make ~name:"opt/multifit (n=10k,m=100)"
      (Staged.stage (fun () -> ignore (Core.Multifit.makespan ~m:100 big_weights)));
    Test.make ~name:"opt/lower-bounds (n=10k,m=100)"
      (Staged.stage (fun () -> ignore (Core.Lower_bounds.best ~m:100 big_weights)));
    (* Fault-injected engine (n=1000, m=210, ~5 replicas/task). *)
    (let placement = ls_group42.Core.Two_phase.phase1 instance in
     let sets = Core.Placement.sets placement in
     let order = Instance.lpt_order instance in
     let healthy =
       Usched_desim.Schedule.makespan
         (Engine.run instance realization ~placement:sets ~order)
     in
     let m = Instance.m instance in
     let crashes =
       Trace.random_crashes (Rng.create ~seed:13 ()) ~m ~p:0.3 ~horizon:healthy
     in
     Test.make ~name:"faulty/crash-heavy p=0.3 (n=1k,m=210)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run_faulty instance realization ~faults:crashes
                 ~placement:sets ~order))));
    (let placement = ls_group42.Core.Two_phase.phase1 instance in
     let sets = Core.Placement.sets placement in
     let order = Instance.lpt_order instance in
     let empty = Trace.empty ~m:(Instance.m instance) in
     Test.make ~name:"faulty/empty-trace overhead (n=1k,m=210)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run_faulty instance realization ~faults:empty
                 ~placement:sets ~order))));
    (* Recovery engine: healing under heavy crashes on a thin (k=2)
       placement, and the overhead of the recovery code path with a
       structurally-neutral policy on the same crash trace as
       faulty/crash-heavy. *)
    (let placement = ls_group2.Core.Two_phase.phase1 instance in
     let sets = Core.Placement.sets placement in
     let order = Instance.lpt_order instance in
     let healthy =
       Usched_desim.Schedule.makespan
         (Engine.run instance realization ~placement:sets ~order)
     in
     let m = Instance.m instance in
     let crashes =
       Trace.random_crashes (Rng.create ~seed:14 ()) ~m ~p:0.3 ~horizon:healthy
     in
     let recovery =
       Recovery.make ~detection_latency:1.0 ~rereplication_target:(Recovery.Fixed 2)
         ~bandwidth:100.0 ()
     in
     Test.make ~name:"recovery/heal r=2 p=0.3 (n=1k,m=210)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run_faulty ~recovery instance realization ~faults:crashes
                 ~placement:sets ~order))));
    (let placement = ls_group42.Core.Two_phase.phase1 instance in
     let sets = Core.Placement.sets placement in
     let order = Instance.lpt_order instance in
     let healthy =
       Usched_desim.Schedule.makespan
         (Engine.run instance realization ~placement:sets ~order)
     in
     let m = Instance.m instance in
     let crashes =
       Trace.random_crashes (Rng.create ~seed:13 ()) ~m ~p:0.3 ~horizon:healthy
     in
     let neutral = Recovery.make () in
     Test.make ~name:"recovery/neutral-policy overhead (n=1k,m=210)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run_faulty ~recovery:neutral instance realization
                 ~faults:crashes ~placement:sets ~order))));
    (* Dispatch layer: the default policy at full size, on the same
       placement/order as faulty/empty-trace overhead but through the
       healthy engine. *)
    (let placement = ls_group42.Core.Two_phase.phase1 instance in
     let sets = Core.Placement.sets placement in
     let order = Instance.lpt_order instance in
     Test.make ~name:"dispatch/list-priority (n=1k,m=210)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run ~dispatch:Dispatch.List_priority instance realization
                 ~placement:sets ~order))));
    (* Streaming service mode: Poisson arrivals at rho ~ 0.85 into the
       dispatch-sized fixture, with and without the replicate-on-
       straggler policy. Arrival generation is inside the timed region —
       it is part of the per-run cost the stream experiment pays. *)
    (let mean_service =
       let a = Realization.actuals disp_realization in
       Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
     in
     let rate = 0.85 *. 32.0 /. mean_service in
     let fcfs = Array.init 300 (fun j -> j) in
     Test.make ~name:"stream/poisson rho=0.85 (n=300,m=32)"
       (Staged.stage (fun () ->
            let arrivals =
              Arrival.generate (Arrival.poisson ~rate)
                (Rng.create ~seed:16 ())
                ~count:300
            in
            ignore
              (Engine.run_stream disp disp_realization ~arrivals
                 ~placement:disp_sets ~order:fcfs))));
    (let mean_service =
       let a = Realization.actuals disp_realization in
       Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
     in
     let rate = 0.85 *. 32.0 /. mean_service in
     let fcfs = Array.init 300 (fun j -> j) in
     Test.make ~name:"stream/speculate beta=1.2 (n=300,m=32)"
       (Staged.stage (fun () ->
            let arrivals =
              Arrival.generate (Arrival.poisson ~rate)
                (Rng.create ~seed:16 ())
                ~count:300
            in
            ignore
              (Engine.run_stream ~speculation:1.2 disp disp_realization
                 ~arrivals ~placement:disp_sets ~order:fcfs))));
    (* Mid-run speed revelation through the fault layer: machines start
       at their optimistic in-band speeds and one Slowdown per machine
       reveals the sampled speed while work is in flight. *)
    (let band = Usched_model.Speed_band.uniform ~m:32 ~lo:0.5 ~hi:2.0 in
     let his = Usched_model.Speed_band.his band in
     let revealed =
       Usched_model.Speed_band.sample band (Rng.create ~seed:17 ())
     in
     let factors = Array.mapi (fun i s -> s /. his.(i)) revealed in
     let optimistic =
       Usched_desim.Schedule.makespan
         (Engine.run ~speeds:his disp disp_realization ~placement:disp_sets
            ~order:disp_order)
     in
     let faults = Trace.revelation ~m:32 ~at:(0.5 *. optimistic) factors in
     Test.make ~name:"faulty/speed-revelation (n=300,m=32)"
       (Staged.stage (fun () ->
            ignore
              (Engine.run_faulty ~speeds:his disp disp_realization ~faults
                 ~placement:disp_sets ~order:disp_order))));
    (* Substrates. *)
    Test.make ~name:"prng/xoshiro256 float"
      (Staged.stage (fun () -> ignore (Rng.float rng)));
    Test.make ~name:"workload/uniform n=1000"
      (Staged.stage (fun () -> ignore (bench_instance ~n:1000 ~m:210)));
    (* Million-task scale rows (ROADMAP item 2): phase-1 + phase-2 at
       n=10^6, m=10^4 must complete in seconds, and the multifit rewrite
       must hold its allocation discipline at that size. These dominate
       the bench wall-clock; [--filter scale/] runs them alone. *)
    (let big = bench_instance ~n:1_000_000 ~m:10_000 in
     let big_realization =
       Realization.uniform_factor big (Rng.create ~seed:18 ())
     in
     let ls_group2_10k = strat ~m:10_000 Strategy.(Group { order = Ls; k = 2 }) in
     Test.make ~name:"scale/two-phase ls-group k=2 (n=1e6,m=10k)"
       (Staged.stage (fun () ->
            ignore
              (Core.Two_phase.makespan ls_group2_10k big big_realization))));
    (let big_weights = Instance.ests (bench_instance ~n:1_000_000 ~m:10_000) in
     Test.make ~name:"scale/multifit (n=1e6,m=10k)"
       (Staged.stage (fun () ->
            ignore (Core.Multifit.makespan ~m:10_000 big_weights))));
  ]
  @ List.map
      (fun policy ->
        Test.make
          ~name:(Printf.sprintf "dispatch/%s (n=300,m=32)" (Dispatch.name policy))
          (Staged.stage (fun () ->
               ignore
                 (Engine.run ~dispatch:policy disp disp_realization
                    ~placement:disp_sets ~order:disp_order))))
      Dispatch.builtin
  (* Registry-driven per-strategy rows: the phase-1 placement cost of
     every catalog family at its representative spec (n=300, m=32). *)
  @ List.map
      (fun e ->
        let algo = Strategy.build (e.Strategy.example ~m:32) ~m:32 in
        Test.make
          ~name:(Printf.sprintf "strategy/%s phase1 (n=300,m=32)" e.Strategy.keyword)
          (Staged.stage (fun () -> ignore (algo.Core.Two_phase.phase1 disp))))
      Strategy.all

type bench_result = {
  name : string;
  ns_per_run : float;
  minor_allocs_per_run : float;
}

let contains ~sub s =
  let ls = String.length s and lu = String.length sub in
  let rec go i = i + lu <= ls && (String.sub s i lu = sub || go (i + 1)) in
  lu = 0 || go 0

let run_benches ~quota_s ~filters () =
  Printf.printf "\n%s\n== Bechamel micro-benchmarks (ns per run)\n%s\n"
    (String.make 72 '=') (String.make 72 '=');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~stabilize:true ()
  in
  let selected =
    match filters with
    | [] -> benches ()
    | _ ->
        List.filter
          (fun t ->
            List.exists (fun sub -> contains ~sub (Test.name t)) filters)
          (benches ())
  in
  if selected = [] then (
    Printf.eprintf
      "bench: no bench row matches --filter %s\navailable rows:\n"
      (String.concat " --filter " (List.map (Printf.sprintf "%S") filters));
    List.iter
      (fun t -> Printf.eprintf "  %s\n" (Test.name t))
      (benches ());
    Printf.eprintf
      "usage: bench [--quick] [--json PATH] [--filter SUBSTR]\n";
    exit 2);
  let grouped = Test.make_grouped ~name:"usched" ~fmt:"%s %s" selected in
  let raw = Benchmark.all cfg instances grouped in
  let estimates_of instance =
    let per_test = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name o acc ->
        let estimate =
          match Analyze.OLS.estimates o with Some (x :: _) -> x | _ -> nan
        in
        (name, estimate) :: acc)
      per_test []
  in
  let times = estimates_of Toolkit.Instance.monotonic_clock in
  let allocs = estimates_of Toolkit.Instance.minor_allocated in
  let results =
    times
    |> List.map (fun (name, ns) ->
           {
             name;
             ns_per_run = ns;
             minor_allocs_per_run =
               Option.value ~default:nan (List.assoc_opt name allocs);
           })
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  List.iter
    (fun r ->
      Printf.printf "  %-46s %14.1f ns/run %14.1f mw/run\n" r.name r.ns_per_run
        r.minor_allocs_per_run)
    results;
  results

(* The BENCH_*.json report: machine-readable bench baseline for
   regression tracking (see BENCH_baseline.json and the CI artifact). *)
let write_json_report ~path ~quota_s results =
  let module Json = Usched_report.Json in
  let report =
    Json.Obj
      [
        ("type", Json.String "bench_report");
        ("version", Json.Int 1);
        ("quota_s", Json.float quota_s);
        ( "results",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("name", Json.String r.name);
                     ("ns_per_run", Json.float r.ns_per_run);
                     ("minor_allocs_per_run", Json.float r.minor_allocs_per_run);
                   ])
               results) );
      ]
  in
  (* Atomic: CI consumes this report, never a half-written one. *)
  Usched_obs.Fs.write_atomic ~path (Json.to_string report ^ "\n");
  Printf.printf "\n[bench] wrote %s\n" path

let () =
  let json_path = ref None in
  let quick = ref false in
  let filters = ref [] in
  Arg.parse
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "PATH  also write results as a machine-readable JSON report" );
      ( "--quick",
        Arg.Set quick,
        "  shorten the measurement quota (CI preset)" );
      ( "--filter",
        Arg.String (fun s -> filters := s :: !filters),
        "SUBSTR  run only bench rows whose name contains SUBSTR (repeatable)"
      );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--quick] [--json PATH] [--filter SUBSTR]";
  let quota_s = if !quick then 0.08 else 0.5 in
  let results = run_benches ~quota_s ~filters:!filters () in
  (match !json_path with
  | Some path -> write_json_report ~path ~quota_s results
  | None -> ());
  Printf.printf "\nbench: done\n"
