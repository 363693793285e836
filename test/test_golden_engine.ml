(* THE golden gate of the zero-allocation engine rewrite: the live
   engine against [Reference_engine] — the pre-refactor engine frozen
   verbatim — bit for bit. Schedules, fates, floats, chronological
   event logs, and metrics snapshots must be identical across mixed
   fault regimes, every built-in dispatch policy, speculation on/off,
   metrics on/off, recovery none/neutral/active, heterogeneous speeds,
   and the streaming arrival mode. Any behavioural drift the SoA heap,
   flat machine state, or allocation-free loops introduced fails
   here. *)

module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json
module Rng = Usched_prng.Rng

(* ------------------------- scenario space --------------------------- *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, p, seed))

let scenario =
  QCheck.make
    ~print:(fun (n, m, k, p, seed) ->
      Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed)
    scenario_gen

let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  let placement () =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  let order = Instance.lpt_order instance in
  let horizon = 2.0 *. Realization.total realization in
  let faults =
    Helpers.merge_traces
      (Trace.random_crashes rng ~m ~p ~horizon)
      (Helpers.merge_traces
         (Trace.random_outages rng ~m ~p ~horizon ~duration:(0.5, 5.0))
         (Trace.random_slowdowns rng ~m ~p ~horizon ~factor:(0.2, 0.9)))
  in
  (instance, realization, placement, order, faults, rng)

(* The recovery/speculation/metrics axes, derived from the seed so the
   320 scenarios spread over the whole grid. *)
let variants seed =
  let speculation = if seed mod 3 = 0 then Some 1.3 else None in
  let metrics_on = seed mod 2 = 0 in
  let recovery =
    match seed mod 5 with
    | 0 | 1 ->
        Recovery.make ~detection_latency:0.5
          ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
          ~checkpoint_interval:1.0 ()
    | 2 -> Recovery.make ()
    | _ -> Recovery.none
  in
  let speeds m =
    if seed mod 7 < 3 then
      Some (Array.init m (fun i -> 0.5 +. (0.5 *. float_of_int (i + 1))))
    else None
  in
  (speculation, metrics_on, recovery, speeds)

let registry metrics_on =
  if metrics_on then Metrics.create () else Metrics.disabled

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

(* The reference wakes every idle machine when a task enters the pool;
   the live engine wakes only the task's holders, so it processes fewer
   events and its queue peaks no higher. Those two instruments may only
   shrink; every other one must match exactly. *)
let wake_counted = [ "engine.events"; "engine.queue_depth_max" ]

(* The reference registers every fault and speculation counter in every
   run; the live engine only in runs that can move them (a non-empty
   trace, speculation on). Such a counter may be missing from the live
   snapshot only when the reference reads zero. *)
let gated_counters =
  [
    "engine.redispatches"; "engine.kills"; "engine.crashes"; "engine.outages";
    "engine.slowdowns"; "engine.spec_starts"; "engine.spec_cancelled";
  ]

let unregistered (a : Metrics.snapshot) (k, v) =
  List.mem k gated_counters && Metrics.find a k = None && v = Metrics.Counter 0

let metrics_match (a : Metrics.snapshot) (b : Metrics.snapshot) =
  let rest s = List.filter (fun (k, _) -> not (List.mem k wake_counted)) s in
  let b = List.filter (fun kv -> not (unregistered a kv)) b in
  Json.to_string (Metrics.to_json (rest a))
  = Json.to_string (Metrics.to_json (rest b))
  && List.for_all
       (fun k ->
         match (Metrics.find a k, Metrics.find b k) with
         | Some (Metrics.Counter x), Some (Metrics.Counter y) -> x <= y
         | Some (Metrics.Gauge x), Some (Metrics.Gauge y) -> x <= y
         | None, None -> true
         | _ -> false)
       wake_counted

let outcomes_identical (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.completed = b.Engine.completed
  && a.Engine.stranded = b.Engine.stranded
  && a.Engine.makespan = b.Engine.makespan
  && a.Engine.wasted = b.Engine.wasted
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Engine.Stranded, Engine.Stranded -> true
         | Engine.Finished e, Engine.Finished f -> entries_equal e f
         | _ -> false)
       a.Engine.fates b.Engine.fates
  && metrics_match a.Engine.metrics b.Engine.metrics

(* ------------------------------ faulty ------------------------------ *)

let prop_faulty_matches_reference =
  QCheck.Test.make
    ~name:"faulty engine is bit-for-bit the frozen reference" ~count:320
    scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, _ = build s in
      let speculation, metrics_on, recovery, _ = variants seed in
      List.for_all
        (fun dispatch ->
          let a, ev_a =
            Engine.run_faulty_traced ?speculation ~dispatch ~recovery
              ~metrics:(registry metrics_on) instance realization ~faults
              ~placement:(Helpers.holders (placement ())) ~order
          in
          let b, ev_b =
            Reference_engine.run_faulty_traced ?speculation ~dispatch
              ~recovery ~metrics:(registry metrics_on) instance realization
              ~faults ~placement:(placement ()) ~order
          in
          outcomes_identical a b && ev_a = ev_b)
        Dispatch.builtin)

(* ----------------------------- healthy ------------------------------ *)

(* A healthy run is the faulty loop on the empty trace: its schedule is
   the reference's healthy schedule, and its records come out in the
   reference's faulty order, which writes a completion and that
   machine's next start before another machine's completion at the same
   instant. *)
let prop_healthy_matches_reference =
  QCheck.Test.make
    ~name:"healthy engine is bit-for-bit the frozen reference" ~count:320
    scenario (fun ((_, m, _, _, seed) as s) ->
      let instance, realization, placement, order, _, _ = build s in
      let _, metrics_on, _, speeds = variants seed in
      let speeds = speeds m in
      List.for_all
        (fun dispatch ->
          let a, ev_a =
            Engine.run_traced ?speeds ~dispatch
              ~metrics:(registry metrics_on) instance realization
              ~placement:(Helpers.holders (placement ())) ~order
          in
          let b, _ =
            Reference_engine.run_traced ?speeds ~dispatch
              ~metrics:(registry metrics_on) instance realization
              ~placement:(placement ()) ~order
          in
          let _, ev_b =
            Reference_engine.run_faulty_traced ?speeds ~dispatch
              ~metrics:(registry metrics_on) instance realization
              ~faults:(Trace.empty ~m) ~placement:(placement ()) ~order
          in
          ev_a = ev_b
          && Array.for_all2 entries_equal
               (Array.init (Schedule.n a) (Schedule.entry a))
               (Array.init (Schedule.n b) (Schedule.entry b)))
        Dispatch.builtin)

(* ----------------------------- streaming ---------------------------- *)

let prop_stream_matches_reference =
  QCheck.Test.make
    ~name:"streaming engine is bit-for-bit the frozen reference" ~count:200
    scenario (fun ((n, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, rng = build s in
      let speculation, metrics_on, recovery, _ = variants seed in
      let arrivals =
        Array.init n (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:5.0)
      in
      let a, bytes =
        Helpers.sink_bytes (fun sink ->
            Engine.run_stream ?speculation ~recovery
              ~metrics:(registry metrics_on) ~faults ~sink instance realization
              ~arrivals ~placement:(Helpers.holders (placement ())) ~order)
      in
      let b, ev_b =
        Reference_engine.run_stream_traced ?speculation ~recovery
          ~metrics:(registry metrics_on) ~faults instance realization
          ~arrivals ~placement:(placement ()) ~order
      in
      outcomes_identical a.Engine.outcome b.Engine.outcome
      && a.Engine.latencies = b.Engine.latencies
      && bytes = Helpers.log_bytes ev_b)

(* ------------------------------- wide ------------------------------- *)

(* The scenarios above keep n <= 14 and m <= 5, so every task and
   machine set fits in one word and the speculation pool and the
   healer's worklist never hold more than a few tasks. These span
   several words on both sides (up to 300 tasks on up to 80 machines)
   under crash-heavy traces with outages, where the healer and the
   backup-copy search do most of their work. *)
let wide =
  QCheck.make
    ~print:(fun (n, m, k, p, seed) ->
      Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed)
    QCheck.Gen.(
      let* n = int_range 60 300 in
      let* m = int_range 8 80 in
      let* k = int_range 1 4 in
      let* p = float_range 0.3 0.8 in
      let* seed = int_bound 1_000_000 in
      return (n, m, k, p, seed))

let build_wide (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  (* Replicas spread over the whole machine range, so holder sets
     straddle word boundaries. *)
  let placement () =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun r -> ((j * 7) + (r * 13)) mod m)))
  in
  let order = Instance.lpt_order instance in
  (* Faults land while the work is still running: the horizon is about
     one healthy makespan. *)
  let horizon = 1.5 *. Realization.total realization /. float_of_int m in
  let outages () =
    Trace.random_outages rng ~m ~p ~horizon ~duration:(0.5, 5.0)
  in
  let faults =
    Helpers.merge_traces
      (Trace.random_crashes rng ~m ~p ~horizon)
      (Helpers.merge_traces (outages ())
         (Helpers.merge_traces (outages ())
            (Trace.random_slowdowns rng ~m ~p ~horizon ~factor:(0.2, 0.9))))
  in
  let arrivals = Array.init n (fun _ -> Rng.float_range rng ~lo:0.0 ~hi:horizon) in
  (instance, realization, placement, order, faults, arrivals)

let wide_variants seed =
  let target =
    match seed mod 3 with
    | 0 -> Recovery.Fixed 2
    | 1 -> Recovery.Fixed 3
    | _ -> Recovery.Degree
  in
  let detection_latency = if seed / 3 mod 2 = 0 then 0.0 else 0.5 in
  let checkpoint_interval = if seed / 6 mod 2 = 0 then 0.0 else 1.0 in
  let recovery =
    Recovery.make ~detection_latency ~rereplication_target:target ~bandwidth:1.0
      ~checkpoint_interval ()
  in
  let speculation = if seed / 12 mod 2 = 0 then 1.05 else 1.3 in
  let dispatch =
    List.nth Dispatch.builtin (seed / 24 mod List.length Dispatch.builtin)
  in
  (recovery, speculation, dispatch, seed / 7 mod 2 = 0)

let prop_wide_faulty_matches_reference =
  QCheck.Test.make
    ~name:"wide: faulty engine is bit-for-bit the frozen reference" ~count:60
    wide (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, _ = build_wide s in
      let recovery, speculation, dispatch, metrics_on = wide_variants seed in
      let a, ev_a =
        Engine.run_faulty_traced ~speculation ~dispatch ~recovery
          ~metrics:(registry metrics_on) instance realization ~faults
          ~placement:(Helpers.holders (placement ())) ~order
      in
      let b, ev_b =
        Reference_engine.run_faulty_traced ~speculation ~dispatch ~recovery
          ~metrics:(registry metrics_on) instance realization ~faults
          ~placement:(placement ()) ~order
      in
      outcomes_identical a b && ev_a = ev_b)

let prop_wide_stream_matches_reference =
  QCheck.Test.make
    ~name:"wide: streaming engine is bit-for-bit the frozen reference"
    ~count:60 wide (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults, arrivals =
        build_wide s
      in
      let recovery, speculation, dispatch, metrics_on = wide_variants seed in
      let a, bytes =
        Helpers.sink_bytes (fun sink ->
            Engine.run_stream ~speculation ~dispatch ~recovery
              ~metrics:(registry metrics_on) ~faults ~sink instance realization
              ~arrivals ~placement:(Helpers.holders (placement ())) ~order)
      in
      let b, ev_b =
        Reference_engine.run_stream_traced ~speculation ~dispatch ~recovery
          ~metrics:(registry metrics_on) ~faults instance realization
          ~arrivals ~placement:(placement ()) ~order
      in
      outcomes_identical a.Engine.outcome b.Engine.outcome
      && a.Engine.latencies = b.Engine.latencies
      && bytes = Helpers.log_bytes ev_b)

(* --------------------------- hand-built ----------------------------- *)

(* Paths the random scenarios reach only by chance, each run through
   both engines and checked for the event that proves the path was
   taken. *)

let crash ~machine ~time = { Usched_faults.Fault.machine; time; kind = Crash }

let outage ~machine ~time ~until =
  { Usched_faults.Fault.machine; time; kind = Outage until }

let matches_reference ?speculation ~recovery ~faults instance realization
    ~placement ~order =
  let a, ev_a =
    Engine.run_faulty_traced ?speculation ~recovery instance realization
      ~faults ~placement:(Helpers.holders (placement ())) ~order
  in
  let b, ev_b =
    Reference_engine.run_faulty_traced ?speculation ~recovery instance
      realization ~faults ~placement:(placement ()) ~order
  in
  Alcotest.(check bool) "outcome matches the reference" true
    (outcomes_identical a b);
  Alcotest.(check bool) "event log matches the reference" true (ev_a = ev_b);
  ev_a

(* The streaming loop has no event-list entry point: its trace bytes
   are compared with the reference log, and the log is returned. *)
let stream_matches_reference ~speculation ~recovery ?faults instance
    realization ~arrivals ~placement ~order =
  let a, bytes =
    Helpers.sink_bytes (fun sink ->
        Engine.run_stream ~speculation ~recovery ~metrics:(Metrics.create ())
          ?faults ~sink instance realization ~arrivals
          ~placement:(Helpers.holders (placement ())) ~order)
  in
  let b, ev_b =
    Reference_engine.run_stream_traced ~speculation ~recovery
      ~metrics:(Metrics.create ()) ?faults instance realization ~arrivals
      ~placement:(placement ()) ~order
  in
  Alcotest.(check bool) "outcome matches the reference" true
    (outcomes_identical a.Engine.outcome b.Engine.outcome);
  Alcotest.(check string) "trace matches the reference log"
    (Helpers.log_bytes ev_b) bytes;
  ev_b

(* A kill leaves a speculated task with one copy while a holder sits
   idle: task 0 (est 4, actual 20) runs on m0, its straggler check
   backs it up on m1 at t=4, and the crash of m1 at t=6 kills the
   backup. Idle m2 also holds task 0, but nothing wakes it until task 1
   arrives at t=7 — and task 1 lives on busy m0 alone. The engine must
   still let m2 pick up the backup then, as waking every idle machine
   does. *)
let kill_leaves_latent_backup () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 8.0) [| 4.0; 8.0 |]
  in
  let realization = Realization.of_actuals instance [| 20.0; 8.0 |] in
  let placement () = [| Bitset.full 3; Bitset.of_list 3 [ 0 ] |] in
  let faults = Trace.of_events ~m:3 [ crash ~machine:1 ~time:6.0 ] in
  let events =
    stream_matches_reference ~speculation:1.0 ~recovery:Recovery.none ~faults
      instance realization ~arrivals:[| 0.0; 7.0 |] ~placement
      ~order:[| 0; 1 |]
  in
  let has e = List.mem e events in
  Alcotest.(check bool) "crash kills the backup on m1" true
    (has (Engine.Killed { time = 6.0; machine = 1; task = 0 }));
  Alcotest.(check bool) "task 1's arrival lets m2 back task 0 up" true
    (has (Engine.Started { time = 7.0; machine = 2; task = 0 }))

(* The same latent backup through a landed transfer: task 0 lives on m0
   alone with target 2, so the t=0 heal copies it to m1 (5 time units).
   Its straggler check at t=4 finds no idle holder; the copy lands on
   idle m1 at t=5 while task 0 is running. Task 1 arrives at t=7 on
   {m0, m2}, and m1 must start the backup then. *)
let transfer_leaves_latent_backup () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 8.0) ~sizes:[| 5.0; 1.0 |]
      [| 4.0; 8.0 |]
  in
  let realization = Realization.of_actuals instance [| 20.0; 8.0 |] in
  let placement () = [| Bitset.of_list 3 [ 0 ]; Bitset.of_list 3 [ 0; 2 ] |] in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let events =
    stream_matches_reference ~speculation:1.0 ~recovery instance realization
      ~arrivals:[| 0.0; 7.0 |] ~placement ~order:[| 0; 1 |]
  in
  let has e = List.mem e events in
  Alcotest.(check bool) "task 0's data lands on m1 at t=5" true
    (has
       (Engine.Rereplication_completed { time = 5.0; task = 0; src = 0; dst = 1 }));
  Alcotest.(check bool) "task 1's arrival lets m1 back task 0 up" true
    (has (Engine.Started { time = 7.0; machine = 1; task = 0 }))

(* Task 0 (est 4, actual 20) runs on m0; its straggler check fires at
   t=4 and starts a backup on idle m1. The crash of m1 at t=6 kills the
   backup, leaving a single armed copy. When m2 frees up at t=8 it must
   pick task 0 from the candidate pool and start a second backup. *)
let crash_rearms_speculation () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 8.0) [| 4.0; 8.0 |]
  in
  let realization = Realization.of_actuals instance [| 20.0; 8.0 |] in
  let placement () = [| Bitset.full 3; Bitset.of_list 3 [ 2 ] |] in
  let faults = Trace.of_events ~m:3 [ crash ~machine:1 ~time:6.0 ] in
  let events =
    matches_reference ~speculation:1.0 ~recovery:Recovery.none ~faults
      instance realization ~placement ~order:[| 0; 1 |]
  in
  let has e = List.mem e events in
  Alcotest.(check bool) "first backup on m1 at t=4" true
    (has (Engine.Started { time = 4.0; machine = 1; task = 0 }));
  Alcotest.(check bool) "crash kills the backup" true
    (has (Engine.Killed { time = 6.0; machine = 1; task = 0 }));
  Alcotest.(check bool) "re-armed task backed up on m2 at t=8" true
    (has (Engine.Started { time = 8.0; machine = 2; task = 0 }))

(* Task 0 lives on {m0, m1} with target 2. An outage takes m0 down over
   [0.5, 5) and m1 crashes at t=1: the task has one live holder but no
   available source, so it waits on the worklist until m0 rejoins at
   t=5 and heals it onto m2. *)
let heal_waits_for_rejoin () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0) [| 10.0 |]
  in
  let realization = Realization.of_actuals instance [| 10.0 |] in
  let placement () = [| Bitset.of_list 3 [ 0; 1 ] |] in
  let faults =
    Trace.of_events ~m:3
      [ outage ~machine:0 ~time:0.5 ~until:5.0; crash ~machine:1 ~time:1.0 ]
  in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let events =
    matches_reference ~recovery ~faults instance realization ~placement
      ~order:[| 0 |]
  in
  Alcotest.(check bool) "no transfer while m0 is down" true
    (List.for_all
       (function
         | Engine.Rereplication_started { time; _ } -> time >= 5.0
         | _ -> true)
       events);
  Alcotest.(check bool) "healed from m0 onto m2 at its rejoin" true
    (List.mem
       (Engine.Rereplication_started { time = 5.0; task = 0; src = 0; dst = 2 })
       events)

(* The same wait on the other end: task 0 lives on {m0, m1} with target
   2, m2 is down over [0.5, 5) and m1 crashes at t=1. m0 can serve as
   the source but no destination is available, so the task waits on the
   worklist until m2 rejoins. *)
let heal_waits_for_destination () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0) [| 10.0 |]
  in
  let realization = Realization.of_actuals instance [| 10.0 |] in
  let placement () = [| Bitset.of_list 3 [ 0; 1 ] |] in
  let faults =
    Trace.of_events ~m:3
      [ outage ~machine:2 ~time:0.5 ~until:5.0; crash ~machine:1 ~time:1.0 ]
  in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let events =
    matches_reference ~recovery ~faults instance realization ~placement
      ~order:[| 0 |]
  in
  Alcotest.(check bool) "healed onto m2 at its rejoin" true
    (List.mem
       (Engine.Rereplication_started { time = 5.0; task = 0; src = 0; dst = 2 })
       events)

(* Task 0 lives on m0 alone with target 2: the t=0 heal starts a
   transfer to m1 (4 time units at bandwidth 1). The crash of m3 at t=1
   runs the healer while that transfer is in flight; crashing the
   destination at t=2 then aborts it. The task must still be on the
   worklist, so the same instant's heal re-issues it to m2. *)
let aborted_transfer_stays_needy () =
  let instance =
    Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 2.0) ~sizes:[| 4.0 |]
      [| 10.0 |]
  in
  let realization = Realization.of_actuals instance [| 10.0 |] in
  let placement () = [| Bitset.of_list 4 [ 0 ] |] in
  let faults =
    Trace.of_events ~m:4
      [ crash ~machine:3 ~time:1.0; crash ~machine:1 ~time:2.0 ]
  in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let events =
    matches_reference ~recovery ~faults instance realization ~placement
      ~order:[| 0 |]
  in
  let has e = List.mem e events in
  Alcotest.(check bool) "t=0 transfer to m1" true
    (has (Engine.Rereplication_started { time = 0.0; task = 0; src = 0; dst = 1 }));
  Alcotest.(check bool) "destination crash aborts it" true
    (has (Engine.Rereplication_aborted { time = 2.0; task = 0; src = 0; dst = 1 }));
  Alcotest.(check bool) "re-issued to m2 at once" true
    (has (Engine.Rereplication_started { time = 2.0; task = 0; src = 0; dst = 2 }))

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "golden_engine"
    [
      ( "golden",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_faulty_matches_reference;
            prop_healthy_matches_reference;
            prop_stream_matches_reference;
          ] );
      ( "wide",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_wide_faulty_matches_reference;
            prop_wide_stream_matches_reference;
          ] );
      ( "paths",
        [
          Alcotest.test_case "crash re-arms a speculated task" `Quick
            crash_rearms_speculation;
          Alcotest.test_case "needy task heals when a holder rejoins" `Quick
            heal_waits_for_rejoin;
          Alcotest.test_case "needy task heals when a destination rejoins"
            `Quick heal_waits_for_destination;
          Alcotest.test_case "aborted transfer keeps the task needy" `Quick
            aborted_transfer_stays_needy;
          Alcotest.test_case "a kill leaves a latent backup" `Quick
            kill_leaves_latent_backup;
          Alcotest.test_case "a landed transfer leaves a latent backup" `Quick
            transfer_leaves_latent_backup;
        ] );
    ]
