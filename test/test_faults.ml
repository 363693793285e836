(* Fault-injection engine: unit scenarios with hand-computed outcomes,
   and qcheck properties on random instances, placements, and traces. *)

module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Rng = Usched_prng.Rng
module Topology = Usched_model.Topology
module Sink = Usched_obs.Trace
module Json = Usched_report.Json

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let submission_order n = Array.init n (fun j -> j)

let finished_entry outcome j =
  match outcome.Engine.fates.(j) with
  | Engine.Finished e -> e
  | Engine.Stranded -> Alcotest.failf "task %d stranded" j

(* ------------------------- unit scenarios -------------------------- *)

let trace_of ~m events = Trace.of_events ~m events
let crash ~machine ~time = { Fault.machine; time; kind = Fault.Crash }

let crash_redispatch () =
  (* Two tasks of 4 on two machines, both fully replicated. Healthy:
     t0 on m0, t1 on m1, makespan 4. Machine 0 crashes at 2: t0's two
     units of work are lost; m1 is busy with t1 until 4, then re-runs
     t0 from scratch, 4..8. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0; 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.init 2 (fun _ -> Bitset.full 2) in
  let outcome =
    Engine.run_faulty instance realization
      ~faults:(trace_of ~m:2 [ crash ~machine:0 ~time:2.0 ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 2)
  in
  checki "all tasks complete" 2 outcome.Engine.completed;
  close "makespan doubles" 8.0 outcome.Engine.makespan;
  close "two units lost" 2.0 outcome.Engine.wasted;
  let e0 = finished_entry outcome 0 in
  checki "t0 re-dispatched to the survivor" 1 e0.Schedule.machine;
  close "t0 restarts after t1" 4.0 e0.Schedule.start;
  close "t0 re-runs from scratch" 8.0 e0.Schedule.finish

let stranded_singleton () =
  (* t0's data lives only on machine 0; t1 is replicated. The crash
     strands t0 but t1 still finishes — reported, not raised. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0; 3.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.singleton 2 0; Bitset.full 2 |] in
  let outcome =
    Engine.run_faulty instance realization
      ~faults:(trace_of ~m:2 [ crash ~machine:0 ~time:1.0 ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 2)
  in
  checki "one survivor" 1 outcome.Engine.completed;
  Alcotest.(check (list int)) "t0 stranded" [ 0 ] outcome.Engine.stranded;
  checkb "stranded fate" true (outcome.Engine.fates.(0) = Engine.Stranded);
  close "survivor makespan" 3.0 outcome.Engine.makespan;
  close "t0's first unit was lost" 1.0 outcome.Engine.wasted;
  checkb "no full schedule" true
    (Engine.outcome_schedule ~m:2 outcome = None)

let outage_kills_and_restarts () =
  (* One task of 4 on one machine. An outage at 2 (until 5) kills the
     copy — the work is not checkpointed — and the machine restarts it
     from scratch on recovery: 5..9. *)
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 1 |] in
  let outcome =
    Engine.run_faulty instance realization
      ~faults:
        (trace_of ~m:1
           [ { Fault.machine = 0; time = 2.0; kind = Fault.Outage 5.0 } ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  checki "completes after recovery" 1 outcome.Engine.completed;
  close "restart from scratch at 5" 9.0 outcome.Engine.makespan;
  close "pre-outage work lost" 2.0 outcome.Engine.wasted;
  let e = finished_entry outcome 0 in
  close "started on recovery" 5.0 e.Schedule.start

let slowdown_stretches_remaining () =
  (* One task of 4 started at 0; the machine slows to half speed at 2.
     Two units done, two remaining at speed 0.5: finish = 2 + 2/0.5. *)
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 1 |] in
  let outcome =
    Engine.run_faulty instance realization
      ~faults:
        (trace_of ~m:1
           [ { Fault.machine = 0; time = 2.0; kind = Fault.Slowdown 0.5 } ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  close "remaining work stretched" 6.0 outcome.Engine.makespan;
  close "nothing wasted" 0.0 outcome.Engine.wasted;
  checki "still completes" 1 outcome.Engine.completed

let speedup_compresses_remaining () =
  (* Slowdown factors above 1 are speed-ups: one task of 4 started at 0,
     the machine doubles its speed at 2. Two units done, two remaining
     at speed 2: finish = 2 + 2/2. *)
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 1 |] in
  let outcome =
    Engine.run_faulty instance realization
      ~faults:
        (trace_of ~m:1
           [ { Fault.machine = 0; time = 2.0; kind = Fault.Slowdown 2.0 } ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  close "remaining work compressed" 3.0 outcome.Engine.makespan;
  checki "still completes" 1 outcome.Engine.completed;
  (* Validation errors render factors above 1 as a speedup. *)
  let rendered =
    try
      Fault.check ~m:1 { Fault.machine = 3; time = 2.0; kind = Fault.Slowdown 2.0 };
      ""
    with Invalid_argument msg -> msg
  in
  let says_speedup =
    let k = String.length "speedup(m3" in
    let rec scan i =
      i + k <= String.length rendered && (String.sub rendered i k = "speedup(m3" || scan (i + 1))
    in
    scan 0
  in
  checkb "error says speedup" true says_speedup

let rejects_bad_slowdown_factor () =
  List.iter
    (fun (name, factor) ->
      checkb name true
        (try
           ignore
             (trace_of ~m:1
                [ { Fault.machine = 0; time = 0.0; kind = Fault.Slowdown factor } ]);
           false
         with Invalid_argument _ -> true))
    [
      ("zero factor", 0.0);
      ("negative factor", -0.5);
      ("nan factor", Float.nan);
      ("infinite factor", Float.infinity);
    ];
  (* Any finite positive factor is accepted, above 1 included. *)
  List.iter
    (fun factor ->
      ignore
        (trace_of ~m:1
           [ { Fault.machine = 0; time = 0.0; kind = Fault.Slowdown factor } ]))
    [ 0.25; 1.0; 3.5 ]

let revelation_trace () =
  (* A revelation is one Slowdown per machine whose factor moves; exact
     factor-1 entries are skipped so a degenerate revelation is the
     empty trace (and replays bit-for-bit as no trace at all). *)
  let t = Trace.revelation ~m:3 ~at:2.5 [| 0.5; 1.0; 2.0 |] in
  let events = Trace.events t in
  checki "factor-1 machines emit nothing" 2 (List.length events);
  List.iter
    (fun e ->
      close "revealed at the given instant" 2.5 e.Fault.time;
      checkb "is a slowdown" true
        (match e.Fault.kind with Fault.Slowdown _ -> true | _ -> false))
    events;
  checkb "degenerate revelation is empty" true
    (Trace.events (Trace.revelation ~m:2 ~at:1.0 [| 1.0; 1.0 |]) = []);
  checkb "wrong machine count rejected" true
    (try
       ignore (Trace.revelation ~m:3 ~at:1.0 [| 1.0 |]);
       false
     with Invalid_argument _ -> true);
  checkb "bad factor rejected" true
    (try
       ignore (Trace.revelation ~m:1 ~at:1.0 [| 0.0 |]);
       false
     with Invalid_argument _ -> true)

let random_slowdowns_above_one () =
  (* The generalized factor range: any finite positive band, straddling
     1 included. *)
  let rng = Rng.create ~seed:11 () in
  let t = Trace.random_slowdowns rng ~m:6 ~p:1.0 ~horizon:4.0 ~factor:(0.5, 2.0) in
  List.iter
    (fun e ->
      match e.Fault.kind with
      | Fault.Slowdown f -> checkb "in band" true (f >= 0.5 && f <= 2.0)
      | _ -> Alcotest.fail "not a slowdown")
    (Trace.events t);
  checkb "inverted range rejected" true
    (try
       ignore
         (Trace.random_slowdowns rng ~m:2 ~p:0.5 ~horizon:1.0 ~factor:(2.0, 0.5));
       false
     with Invalid_argument _ -> true)

let speculation_backup_wins () =
  (* One task, estimate 2 but actual 8, on two machines. Machine 0 is a
     congenital straggler (quarter speed from t=0): the primary copy
     would finish at 32. With beta=2 a backup is allowed from
     t = 2*est/base_speed = 4; machine 1 is idle and holds the data, so
     the backup runs 4..12 and wins; the primary is cancelled at 12,
     its 12 wall-clock units counted as waste. *)
  let instance = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 4.0) [| 2.0 |] in
  let realization = Realization.of_actuals instance [| 8.0 |] in
  let placement = [| Bitset.full 2 |] in
  let faults =
    trace_of ~m:2 [ { Fault.machine = 0; time = 0.0; kind = Fault.Slowdown 0.25 } ]
  in
  let no_spec =
    Engine.run_faulty instance realization ~faults ~placement:(Helpers.holders placement)
      ~order:(submission_order 1)
  in
  close "without speculation the straggler limps home" 32.0
    no_spec.Engine.makespan;
  let outcome, events =
    Engine.run_faulty_traced ~speculation:2.0 instance realization ~faults
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  checki "completes" 1 outcome.Engine.completed;
  let e = finished_entry outcome 0 in
  checki "backup copy wins" 1 e.Schedule.machine;
  close "backup starts when armed" 4.0 e.Schedule.start;
  close "backup finish" 12.0 e.Schedule.finish;
  close "makespan is the winner's" 12.0 outcome.Engine.makespan;
  close "loser's wall-clock is waste" 12.0 outcome.Engine.wasted;
  checkb "primary was cancelled" true
    (List.exists
       (function Engine.Cancelled { machine = 0; _ } -> true | _ -> false)
       events)

let speculation_needs_a_holder () =
  (* Singleton placement: nobody else holds the data, so speculation
     never fires even when armed. *)
  let instance = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 4.0) [| 2.0 |] in
  let realization = Realization.of_actuals instance [| 8.0 |] in
  let placement = [| Bitset.singleton 2 0 |] in
  let outcome =
    Engine.run_faulty ~speculation:2.0 instance realization
      ~faults:(Trace.empty ~m:2)
        ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  close "no backup possible" 8.0 outcome.Engine.makespan;
  close "no waste" 0.0 outcome.Engine.wasted

(* -------------------- tie-breaks at equal times --------------------- *)

(* Faults sort before completions at the same timestamp (event class 0
   vs 1): a copy finishing exactly when its machine's outage begins is
   killed, not completed — and killed exactly once. *)
let outage_at_completion_time () =
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 1 |] in
  let outcome, events =
    Engine.run_faulty_traced instance realization
      ~faults:
        (trace_of ~m:1
           [ { Fault.machine = 0; time = 4.0; kind = Fault.Outage 6.0 } ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  checki "killed exactly once" 1
    (List.length
       (List.filter
          (function Engine.Killed _ -> true | _ -> false)
          events));
  close "the whole attempt counted as waste, once" 4.0 outcome.Engine.wasted;
  close "restart after the outage" 10.0 outcome.Engine.makespan

(* Two faults on the same machine at the same instant: the first kills
   the running copy, the second finds nothing left to kill — the copy's
   work is wasted once, whatever the trace order. *)
let simultaneous_crash_and_outage order_name evs () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 2 |] in
  let outcome, events =
    Engine.run_faulty_traced instance realization ~faults:(trace_of ~m:2 evs)
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  checki (order_name ^ ": killed exactly once") 1
    (List.length
       (List.filter
          (function Engine.Killed _ -> true | _ -> false)
          events));
  close (order_name ^ ": wasted once, not twice") 2.0 outcome.Engine.wasted;
  checki (order_name ^ ": completes on the survivor") 1
    outcome.Engine.completed;
  let e = finished_entry outcome 0 in
  checki (order_name ^ ": survivor machine") 1 e.Schedule.machine;
  close (order_name ^ ": redispatch at the fault instant") 2.0
    e.Schedule.start

let crash_then_outage () =
  simultaneous_crash_and_outage "crash-first"
    [
      crash ~machine:0 ~time:2.0;
      { Fault.machine = 0; time = 2.0; kind = Fault.Outage 5.0 };
    ]
    ()

let outage_then_crash () =
  simultaneous_crash_and_outage "outage-first"
    [
      { Fault.machine = 0; time = 2.0; kind = Fault.Outage 5.0 };
      crash ~machine:0 ~time:2.0;
    ]
    ()

(* ------------------------ qcheck properties ------------------------ *)

(* Random scenario: n tasks, m machines, ring placement with k replicas,
   crash probability p. The instance, realization, and trace all derive
   from one integer seed. *)
let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, p, seed))

let scenario_print (n, m, k, p, seed) =
  Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed

let scenario = QCheck.make ~print:scenario_print scenario_gen

let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    Array.init n (fun j -> Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  let order = Instance.lpt_order instance in
  let horizon = 2.0 *. Realization.total realization in
  let faults = Trace.random_crashes rng ~m ~p ~horizon in
  (instance, realization, placement, order, faults)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

(* The golden test: an empty trace reproduces [run] bit-for-bit — same
   machines, same start/finish floats, zero waste — with and without
   machine speeds, and on priced multi-zone topologies, where a copy
   placed outside its data's home zone pays staging. *)
let prop_empty_trace_golden =
  QCheck.Test.make ~name:"run_faulty on the empty trace equals run exactly"
    ~count:500 scenario (fun ((n, m, _, _, seed) as s) ->
      let instance, realization, placement, order, _ = build s in
      let rng = Rng.create ~seed:(seed + 1) () in
      let speeds =
        if seed mod 2 = 0 then None
        else Some (Array.init m (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:2.0))
      in
      let instance =
        if seed mod 3 = 0 || m = 1 then instance
        else
          Helpers.with_priced_zones rng ~zones:(2 + (seed mod (m - 1))) instance
      in
      let reference =
        Engine.run ?speeds instance realization
          ~placement:(Helpers.holders placement) ~order
      in
      let outcome =
        Engine.run_faulty ?speeds instance realization
          ~faults:(Trace.empty ~m) ~placement:(Helpers.holders placement) ~order
      in
      outcome.Engine.completed = n
      && outcome.Engine.stranded = []
      && outcome.Engine.wasted = 0.0
      && outcome.Engine.makespan = Schedule.makespan reference
      && Array.for_all
           (fun j ->
             entries_equal (finished_entry outcome j) (Schedule.entry reference j))
           (Array.init n (fun j -> j)))

(* A slowdown striking exactly at a running copy's predicted finish must
   not let the completion out before the slowdown: the trace's clock
   never steps back. The slowdown goes on one machine at one of its
   copies' healthy finish; with no earlier fault, the run up to that
   instant is the healthy run, so the finish is exactly the one the
   engine predicted. *)
let prop_trace_time_monotone =
  QCheck.Test.make ~name:"a slowdown at a predicted finish keeps trace time monotone"
    ~count:2000 scenario (fun ((n, m, _, _, seed) as s) ->
      let instance, realization, placement, order, _ = build s in
      let rng = Rng.create ~seed:(seed + 7) () in
      let speeds = Array.init m (fun _ -> Rng.float_range rng ~lo:0.3 ~hi:3.0) in
      let healthy = Engine.run ~speeds instance realization
          ~placement:(Helpers.holders placement) ~order in
      let e = Schedule.entry healthy (Rng.int rng n) in
      let faults =
        trace_of ~m
          [
            {
              Fault.machine = e.Schedule.machine;
              time = e.Schedule.finish;
              kind = Fault.Slowdown (Rng.float_range rng ~lo:0.2 ~hi:5.0);
            };
          ]
      in
      let sink = Sink.memory () in
      ignore (Engine.run_faulty ~speeds ~sink instance realization ~faults
          ~placement:(Helpers.holders placement) ~order);
      let times =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match Json.member "t" (Json.of_string_exn line) with
              | Some (Json.Float t) -> Some t
              | Some (Json.Int t) -> Some (float_of_int t)
              | _ -> None)
          (String.split_on_char '\n' (Sink.contents sink))
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      non_decreasing times)

(* No completed work on a dead machine: every surviving entry fits
   before its machine's crash and inside no outage window. *)
let prop_no_work_on_dead_machines =
  QCheck.Test.make ~name:"completed tasks never ran on a crashed machine"
    ~count:500 scenario (fun s ->
      let instance, realization, placement, order, faults = build s in
      let outcome =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      ignore instance;
      Array.for_all
        (function
          | Engine.Stranded -> true
          | Engine.Finished e ->
              (match Helpers.crash_time faults e.Schedule.machine with
              | Some t -> e.Schedule.finish <= t
              | None -> true)
              && List.for_all
                   (fun (from, until) ->
                     e.Schedule.finish <= from || e.Schedule.start >= until)
                   (Helpers.outages faults e.Schedule.machine))
        outcome.Engine.fates)

let prop_locality =
  QCheck.Test.make ~name:"completed tasks ran on a data holder" ~count:500
    scenario (fun s ->
      let instance, realization, placement, order, faults = build s in
      let outcome =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      Array.for_all (fun j ->
          match outcome.Engine.fates.(j) with
          | Engine.Stranded -> true
          | Engine.Finished e -> Bitset.mem placement.(j) e.Schedule.machine)
        (Array.init (Instance.n instance) (fun j -> j)))

(* Liveness: a task with a holder that never crashes always finishes,
   and a crash-only trace never strands work below the actual durations
   (the winning copy ran uninterrupted). *)
let prop_surviving_holder_completes =
  QCheck.Test.make ~name:"a task with a never-crashed holder completes"
    ~count:500 scenario (fun s ->
      let instance, realization, placement, order, faults = build s in
      let outcome =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      let crashed = Trace.crashed faults in
      Array.for_all (fun j ->
          let has_survivor =
            List.exists
              (fun i -> not (List.mem i crashed))
              (Helpers.elements placement.(j))
          in
          match outcome.Engine.fates.(j) with
          | Engine.Finished e ->
              abs_float
                (e.Schedule.finish -. e.Schedule.start
                -. Realization.actual realization j)
              < 1e-9
          | Engine.Stranded -> not has_survivor)
        (Array.init (Instance.n instance) (fun j -> j)))

let prop_full_replication_survives =
  QCheck.Test.make
    ~name:"full replication + one survivor = 100% completion" ~count:300
    scenario (fun (n, m, _, p, seed) ->
      let instance, realization, _, order, faults =
        build (n, m, m, p, seed)
      in
      let placement = Array.init n (fun _ -> Bitset.full m) in
      let outcome =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      outcome.Engine.completed + List.length outcome.Engine.stranded = n
      && (List.length (Trace.crashed faults) >= m
         || (outcome.Engine.stranded = [] && outcome.Engine.completed = n)))

let prop_deterministic =
  QCheck.Test.make ~name:"run_faulty is deterministic" ~count:200 scenario
    (fun s ->
      let instance, realization, placement, order, faults = build s in
      let speculation = 1.5 in
      let a =
        Engine.run_faulty ~speculation instance realization ~faults
          ~placement:(Helpers.holders placement)
          ~order
      in
      let b =
        Engine.run_faulty ~speculation instance realization ~faults
          ~placement:(Helpers.holders placement)
          ~order
      in
      a.Engine.makespan = b.Engine.makespan
      && a.Engine.wasted = b.Engine.wasted
      && a.Engine.stranded = b.Engine.stranded
      && Array.for_all2
           (fun x y ->
             match (x, y) with
             | Engine.Stranded, Engine.Stranded -> true
             | Engine.Finished e, Engine.Finished f -> entries_equal e f
             | _ -> false)
           a.Engine.fates b.Engine.fates)

(* The slowdown trace the speculation tests replay on a [build]
   scenario. *)
let slowdowns ~m ~p ~seed realization =
  Trace.random_slowdowns
    (Rng.create ~seed:(seed + 2) ())
    ~m ~p ~horizon:(2.0 *. Realization.total realization)
    ~factor:(0.2, 0.9)

(* On a crash-free slowdown trace speculation loses no task, and the run
   without it wastes nothing. (It can lengthen the makespan: see
   [speculation_anomaly].) *)
let prop_speculation_completes =
  QCheck.Test.make
    ~name:"speculation completes every task under slowdowns" ~count:300
    scenario (fun (n, m, k, p, seed) ->
      let instance, realization, placement, order, _ =
        build (n, m, k, p, seed)
      in
      let faults = slowdowns ~m ~p ~seed realization in
      let plain =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      let spec =
        Engine.run_faulty ~speculation:1.2 instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      spec.Engine.completed = n
      && plain.Engine.completed = n
      && plain.Engine.wasted = 0.0)

(* Speculation is a list-scheduling heuristic and can lengthen the
   makespan. Here task 13's backup wins on machine 4, which frees the
   slowed machine 3 early; machine 3 then takes task 2 and runs it at a
   quarter of its speed, and task 2 ends only when its own backup on
   machine 2 wins. Without speculation machine 3 is still busy when
   machine 2 frees up, so machine 2 runs task 2 from the start. Both
   runs are the frozen reference engine's bit for bit. *)
let speculation_anomaly () =
  let n = 14 and m = 5 and p = 0x1.45be6e9226b84p-2 and seed = 418711 in
  let instance, realization, placement, order, _ = build (n, m, 2, p, seed) in
  let faults = slowdowns ~m ~p ~seed realization in
  let replay ?speculation () =
    let a, ev_a =
      Engine.run_faulty_traced ?speculation instance realization ~faults
        ~placement:(Helpers.holders placement) ~order
    in
    let b, ev_b =
      Reference_engine.run_faulty_traced ?speculation instance realization
        ~faults ~placement ~order
    in
    checkb "makespan = reference" true (a.Engine.makespan = b.Engine.makespan);
    checkb "wasted = reference" true (a.Engine.wasted = b.Engine.wasted);
    checkb "fates = reference" true
      (Array.for_all2
         (fun x y ->
           match (x, y) with
           | Engine.Finished e, Engine.Finished f -> entries_equal e f
           | _ -> false)
         a.Engine.fates b.Engine.fates);
    checkb "event log = reference" true (ev_a = ev_b);
    (a, ev_a)
  in
  let plain, _ = replay () in
  let spec, events = replay ~speculation:1.2 () in
  checki "plain completes" n plain.Engine.completed;
  checki "speculation completes" n spec.Engine.completed;
  Alcotest.(check (float 0.0)) "plain makespan" 19.849386267055515
    plain.Engine.makespan;
  Alcotest.(check (float 0.0)) "speculative makespan" 21.617811789768844
    spec.Engine.makespan;
  let has p = List.exists p events in
  checkb "task 13's backup wins on machine 4" true
    (has (function Engine.Completed { machine = 4; task = 13; _ } -> true | _ -> false));
  checkb "machine 3 then starts task 2" true
    (has (function Engine.Started { machine = 3; task = 2; _ } -> true | _ -> false));
  let last = finished_entry spec 2 in
  checki "task 2 ends on its backup" 2 last.Schedule.machine;
  Alcotest.(check (float 0.0)) "task 2 ends last" spec.Engine.makespan
    last.Schedule.finish

(* --------------- profile-driven trace generation ------------------- *)

module Failure = Usched_model.Failure

let profile_scenario =
  QCheck.make
    ~print:(fun (m, seed) -> Printf.sprintf "m=%d seed=%d" m seed)
    QCheck.Gen.(
      let* m = int_range 1 6 in
      let* seed = int_bound 1_000_000 in
      return (m, seed))

(* Statistical convergence: over many seeded traces, each machine's
   empirical crash frequency matches its profile probability. The
   tolerance is 5 binomial standard deviations plus slack, so a correct
   generator fails with probability ~1e-6 per machine. *)
let prop_profile_frequencies =
  QCheck.Test.make
    ~name:"profile_crashes frequencies converge to the profile" ~count:20
    profile_scenario (fun (m, seed) ->
      let rng = Rng.create ~seed () in
      let profile =
        Failure.make (Array.init m (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:1.0))
      in
      let trials = 1500 in
      let hits = Array.make m 0 in
      for _ = 1 to trials do
        let faults =
          Trace.profile_crashes (Rng.split rng) ~profile ~horizon:10.0
        in
        List.iter (fun i -> hits.(i) <- hits.(i) + 1) (Trace.crashed faults)
      done;
      Array.for_all
        (fun i ->
          let p = Failure.p profile i in
          let freq = float_of_int hits.(i) /. float_of_int trials in
          let sigma = sqrt (p *. (1.0 -. p) /. float_of_int trials) in
          abs_float (freq -. p) <= (5.0 *. sigma) +. 0.01)
        (Array.init m (fun i -> i)))

(* Structure: crashes land inside [0, horizon), on valid machines, at
   most one per machine, and p=0 / p=1 machines never / always crash. *)
let prop_profile_structure =
  QCheck.Test.make ~name:"profile_crashes respects horizon and extremes"
    ~count:200 profile_scenario (fun (m, seed) ->
      let rng = Rng.create ~seed () in
      let p =
        Array.init m (fun i ->
            if i mod 3 = 0 then 0.0
            else if i mod 3 = 1 then 1.0
            else Rng.float_range rng ~lo:0.0 ~hi:1.0)
      in
      let profile = Failure.make p in
      let horizon = 7.5 in
      let faults = Trace.profile_crashes rng ~profile ~horizon in
      let crashed = Trace.crashed faults in
      List.length (List.sort_uniq Int.compare crashed) = List.length crashed
      && List.for_all
           (fun i ->
             i >= 0 && i < m
             && p.(i) > 0.0
             &&
             match Helpers.crash_time faults i with
             | Some t -> t >= 0.0 && t < horizon
             | None -> false)
           crashed
      && Array.for_all
           (fun i -> p.(i) < 1.0 || List.mem i crashed)
           (Array.init m (fun i -> i)))

let () =
  Alcotest.run "faults"
    [
      ( "scenarios",
        [
          Alcotest.test_case "crash kills and re-dispatches" `Quick
            crash_redispatch;
          Alcotest.test_case "last-replica crash strands the task" `Quick
            stranded_singleton;
          Alcotest.test_case "outage kills and restarts from scratch" `Quick
            outage_kills_and_restarts;
          Alcotest.test_case "slowdown stretches remaining work" `Quick
            slowdown_stretches_remaining;
          Alcotest.test_case "speedup compresses remaining work" `Quick
            speedup_compresses_remaining;
          Alcotest.test_case "slowdown factor validation" `Quick
            rejects_bad_slowdown_factor;
          Alcotest.test_case "revelation trace" `Quick revelation_trace;
          Alcotest.test_case "slowdown factors above one" `Quick
            random_slowdowns_above_one;
          Alcotest.test_case "speculative backup beats the straggler" `Quick
            speculation_backup_wins;
          Alcotest.test_case "speculation needs a second data holder" `Quick
            speculation_needs_a_holder;
          Alcotest.test_case "speculation can lengthen the makespan" `Quick
            speculation_anomaly;
        ] );
      ( "tie-breaks",
        [
          Alcotest.test_case "outage at the exact completion time kills once"
            `Quick outage_at_completion_time;
          Alcotest.test_case "crash and outage at the same instant (crash first)"
            `Quick crash_then_outage;
          Alcotest.test_case "crash and outage at the same instant (outage first)"
            `Quick outage_then_crash;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_empty_trace_golden;
            prop_trace_time_monotone;
            prop_no_work_on_dead_machines;
            prop_locality;
            prop_surviving_holder_completes;
            prop_full_replication_survives;
            prop_deterministic;
            prop_speculation_completes;
          ] );
      ( "profiles",
        List.map QCheck_alcotest.to_alcotest
          [ prop_profile_frequencies; prop_profile_structure ] );
    ]
