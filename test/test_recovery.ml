(* Recovery layer: hand-computed healing/detection/checkpoint timelines,
   and qcheck properties — most importantly the golden equivalence of
   [recovery = none] with the pre-recovery engine, bit for bit. *)

module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let submission_order n = Array.init n (fun j -> j)

let finished_entry outcome j =
  match outcome.Engine.fates.(j) with
  | Engine.Finished e -> e
  | Engine.Stranded -> Alcotest.failf "task %d stranded" j

let counter snapshot name =
  match Metrics.find snapshot name with
  | Some (Metrics.Counter c) -> c
  | _ -> 0

let crash ~machine ~time = { Fault.machine; time; kind = Fault.Crash }

let outage ~machine ~time ~until =
  { Fault.machine; time; kind = Fault.Outage until }

(* ------------------------- policy record --------------------------- *)

let policy_validation () =
  checkb "none is none" true (Recovery.is_none Recovery.none);
  checkb "make () is structurally neutral but not none" false
    (Recovery.is_none (Recovery.make ()));
  checkb "make () is active" true (Recovery.is_active (Recovery.make ()));
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "negative latency rejected" true
    (raises (fun () -> Recovery.make ~detection_latency:(-1.0) ()));
  checkb "nan latency rejected" true
    (raises (fun () -> Recovery.make ~detection_latency:Float.nan ()));
  checkb "infinite latency rejected" true
    (raises (fun () -> Recovery.make ~detection_latency:infinity ()));
  checkb "zero bandwidth rejected" true
    (raises (fun () -> Recovery.make ~bandwidth:0.0 ()));
  checkb "nan bandwidth rejected" true
    (raises (fun () -> Recovery.make ~bandwidth:Float.nan ()));
  checkb "infinite bandwidth fine" true
    (Recovery.is_active (Recovery.make ~bandwidth:infinity ()));
  checkb "negative target rejected" true
    (raises (fun () -> Recovery.make ~rereplication_target:(Recovery.Fixed (-2)) ()));
  checkb "nan checkpoint rejected" true
    (raises (fun () -> Recovery.make ~checkpoint_interval:Float.nan ()))

let target_grammar () =
  Alcotest.(check string) "degree prints" "degree"
    (Recovery.target_to_string Recovery.Degree);
  Alcotest.(check string) "fixed prints" "2"
    (Recovery.target_to_string (Recovery.Fixed 2));
  checkb "degree parses" true
    (Recovery.target_of_string "degree" = Ok Recovery.Degree);
  checkb "parsing is case-insensitive" true
    (Recovery.target_of_string "Degree" = Ok Recovery.Degree);
  checkb "count parses" true
    (Recovery.target_of_string "3" = Ok (Recovery.Fixed 3));
  List.iter
    (fun s ->
      checkb (Printf.sprintf "%S rejected" s) true
        (match Recovery.target_of_string s with
        | Error _ -> true
        | Ok _ -> false))
    [ "-1"; "x"; ""; "1.5" ];
  checkb "Fixed 0 does not heal" false (Recovery.heals Recovery.none);
  checkb "Fixed 2 heals" true
    (Recovery.heals (Recovery.make ~rereplication_target:(Recovery.Fixed 2) ()));
  checkb "Degree heals" true
    (Recovery.heals (Recovery.make ~rereplication_target:Recovery.Degree ()))

(* ------------------------- unit scenarios -------------------------- *)

let heal_rescues_singleton () =
  (* One task of 4 whose data lives only on machine 0, two machines,
     healer target 2 at bandwidth 1 (size 1 => transfer takes 1).
     t=0: copy m0 -> m1 starts alongside the task; t=1: m1 holds the
     data. Machine 0 crashes at 3: passive engine strands the task, the
     healed engine re-dispatches it to m1 (3..7). *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement () = [| Bitset.singleton 2 0 |] in
  let faults = Trace.of_events ~m:2 [ crash ~machine:0 ~time:3.0 ] in
  let passive =
    Engine.run_faulty instance realization ~faults
      ~placement:(Helpers.holders (placement ()))
      ~order:(submission_order 1)
  in
  Alcotest.(check (list int)) "passive strands" [ 0 ] passive.Engine.stranded;
  close "passive wasted the killed work" 3.0 passive.Engine.wasted;
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let metrics = Metrics.create () in
  let outcome, events =
    Engine.run_faulty_traced ~recovery ~metrics instance realization ~faults
      ~placement:(Helpers.holders (placement ())) ~order:(submission_order 1)
  in
  checki "healed engine completes" 1 outcome.Engine.completed;
  Alcotest.(check (list int)) "nothing stranded" [] outcome.Engine.stranded;
  let e = finished_entry outcome 0 in
  checki "finished on the healed replica" 1 e.Schedule.machine;
  close "re-dispatched at the crash" 3.0 e.Schedule.start;
  close "re-run from scratch" 7.0 e.Schedule.finish;
  close "killed work still wasted" 3.0 outcome.Engine.wasted;
  checki "one transfer" 1 (counter outcome.Engine.metrics "engine.rereplications");
  checkb "transfer completed at t=1" true
    (List.exists
       (function
         | Engine.Rereplication_completed { time; task = 0; src = 0; dst = 1 }
           ->
             time = 1.0
         | _ -> false)
       events)

let detection_latency_delays_redispatch () =
  (* One task of 4 on {0, 1}, running on m0; m0 crashes at 1. With
     instantaneous detection the survivor restarts it at 1 (finish 5);
     with a detection latency of 2 the orphan is only released when the
     detector fires at 3 (finish 7). *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement () = [| Bitset.full 2 |] in
  let faults = Trace.of_events ~m:2 [ crash ~machine:0 ~time:1.0 ] in
  let instant =
    Engine.run_faulty
      ~recovery:(Recovery.make ())
      instance realization ~faults ~placement:(Helpers.holders (placement ()))
      ~order:(submission_order 1)
  in
  close "instant detection restarts at the crash" 5.0 instant.Engine.makespan;
  let lagged, events =
    Engine.run_faulty_traced
      ~recovery:(Recovery.make ~detection_latency:2.0 ())
      instance realization ~faults ~placement:(Helpers.holders (placement ()))
      ~order:(submission_order 1)
  in
  checki "still completes" 1 lagged.Engine.completed;
  let e = finished_entry lagged 0 in
  close "restart waits for the detector" 3.0 e.Schedule.start;
  close "finish slides by the latency" 7.0 lagged.Engine.makespan;
  checkb "detection event at fault + latency" true
    (List.exists
       (function
         | Engine.Failure_detected { time; machine = 0 } -> time = 3.0
         | _ -> false)
       events)

let checkpoint_resume_on_rejoin () =
  (* One task of 10 on a single machine, outage [5, 8), checkpoint
     interval 2. At the kill 5 units are done, 4 of them banked
     (floor(5/2)*2): wasted 1 instead of 5. On rejoin the machine
     resumes from the checkpoint: 6 remaining units, finish 14 instead
     of the passive restart's 18. *)
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 10.0 |]
  in
  let realization = Realization.exact instance in
  let placement () = [| Bitset.full 1 |] in
  let faults =
    Trace.of_events ~m:1 [ outage ~machine:0 ~time:5.0 ~until:8.0 ]
  in
  let restart =
    Engine.run_faulty instance realization ~faults
      ~placement:(Helpers.holders (placement ()))
      ~order:(submission_order 1)
  in
  close "passive restarts from zero" 18.0 restart.Engine.makespan;
  close "passive wastes the whole attempt" 5.0 restart.Engine.wasted;
  let metrics = Metrics.create () in
  let outcome, events =
    Engine.run_faulty_traced
      ~recovery:(Recovery.make ~checkpoint_interval:2.0 ())
      ~metrics instance realization ~faults ~placement:(Helpers.holders (placement ()))
      ~order:(submission_order 1)
  in
  checki "completes" 1 outcome.Engine.completed;
  close "resume keeps the banked 4 units" 14.0 outcome.Engine.makespan;
  close "only the unbanked unit is wasted" 1.0 outcome.Engine.wasted;
  checki "one resume" 1
    (counter outcome.Engine.metrics "engine.checkpoint_resumes");
  checkb "resume event carries the banked progress" true
    (List.exists
       (function
         | Engine.Checkpoint_resumed { time; machine = 0; task = 0; progress }
           ->
             time = 8.0 && progress = 4.0
         | _ -> false)
       events)

let crash_destroys_checkpoint () =
  (* Same scenario, but the machine crashes (at 9) right after rejoining
     and a second machine holds the data: the checkpoint was local to
     machine 0's disk, so machine 1 restarts the task from zero. *)
  let faults =
    Trace.of_events ~m:2
      [
        outage ~machine:0 ~time:5.0 ~until:8.0; crash ~machine:0 ~time:9.0;
      ]
  in
  (* Machine 1 holds t0's data too but is pinned down by its own long
     task, so the checkpointed resume on m0 happens first; only after
     the crash does m1 pick t0 up — from scratch. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 10.0; 20.0 |]
  in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 2; Bitset.singleton 2 1 |] in
  let outcome =
    Engine.run_faulty
      ~recovery:(Recovery.make ~checkpoint_interval:2.0 ())
      instance realization ~faults ~placement:(Helpers.holders placement)
      ~order:(submission_order 2)
  in
  checki "both complete" 2 outcome.Engine.completed;
  let e = finished_entry outcome 0 in
  checki "survivor picks the task up" 1 e.Schedule.machine;
  close "from scratch, after its own task" 20.0 e.Schedule.start;
  close "no banked progress survives a crash" 30.0 e.Schedule.finish

(* ------------------------ qcheck properties ------------------------ *)

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

(* Mixed fault regime: crashes, outages, and slowdowns merged into one
   trace, sometimes with speculation on — the widest surface the golden
   equivalence must hold over. *)
let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  let placement =
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
  (instance, realization, placement, order, faults)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

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
  && Json.to_string (Metrics.to_json a.Engine.metrics)
     = Json.to_string (Metrics.to_json b.Engine.metrics)

(* THE golden property of this layer: the [none] policy is bit-for-bit
   the pre-recovery engine — fates, floats, events, and metrics — so
   every downstream result obtained without a recovery flag is
   unchanged by this code existing. 320 scenarios x mixed fault kinds. *)
let prop_none_is_golden =
  QCheck.Test.make
    ~name:"recovery=none is bit-for-bit the passive engine" ~count:320
    scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults = build s in
      let speculation = if seed mod 3 = 0 then Some 1.3 else None in
      let m_a = Metrics.create () and m_b = Metrics.create () in
      let a, ev_a =
        Engine.run_faulty_traced ?speculation ~metrics:m_a instance realization
          ~faults ~placement:(Helpers.holders placement) ~order
      in
      let b, ev_b =
        Engine.run_faulty_traced ?speculation ~recovery:Recovery.none
          ~metrics:m_b instance realization ~faults
            ~placement:(Helpers.holders placement) ~order
      in
      outcomes_identical a b && ev_a = ev_b)

(* The neutral-parameter policy ([make ()]) drives the recovery code
   path — data copies, transfer arrays, orphan bookkeeping — yet all of
   it must be behaviourally invisible. This is the test that would catch
   an accidental divergence in the refactored internals. *)
let prop_neutral_policy_is_transparent =
  QCheck.Test.make
    ~name:"recovery with neutral parameters changes nothing" ~count:320
    scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults = build s in
      let speculation = if seed mod 3 = 0 then Some 1.3 else None in
      let m_a = Metrics.create () and m_b = Metrics.create () in
      let a, ev_a =
        Engine.run_faulty_traced ?speculation ~metrics:m_a instance realization
          ~faults ~placement:(Helpers.holders placement) ~order
      in
      let b, ev_b =
        Engine.run_faulty_traced ?speculation ~recovery:(Recovery.make ())
          ~metrics:m_b instance realization ~faults
            ~placement:(Helpers.holders placement) ~order
      in
      outcomes_identical a b && ev_a = ev_b)

(* Healing monotonicity, in the regime where it is a theorem: crashes at
   distinct times spaced wider than the detection latency, at least one
   machine never crashing, instantaneous transfers. Every crash is then
   fully healed before the next one lands, so nothing ever strands —
   while the passive engine on the same trace strands freely. *)
let heal_scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 2 5 in
    let* crashes = int_range 1 (m - 1) in
    let* lat = float_range 0.0 2.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, crashes, lat, seed))

let heal_scenario =
  QCheck.make
    ~print:(fun (n, m, c, lat, seed) ->
      Printf.sprintf "n=%d m=%d crashes=%d lat=%.3f seed=%d" n m c lat seed)
    heal_scenario_gen

let prop_healing_unstrands =
  QCheck.Test.make
    ~name:"spaced crashes + instant healing never strand a task" ~count:300
    heal_scenario (fun (n, m, crashes, lat, seed) ->
      let rng = Rng.create ~seed () in
      let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
      let realization = Realization.uniform_factor instance rng in
      let placement () =
        Array.init n (fun j -> Bitset.singleton m (j mod m))
      in
      let order = Instance.lpt_order instance in
      (* Crash machines 0..crashes-1 (machine m-1 always survives) at
         times spaced by more than the detection latency. *)
      let gap = lat +. 1.0 in
      let faults =
        Trace.of_events ~m
          (List.init crashes (fun i ->
               crash ~machine:i
                 ~time:(Rng.float_range rng ~lo:0.1 ~hi:1.0
                       +. (float_of_int i *. gap))))
      in
      let recovery =
        Recovery.make ~detection_latency:lat ~rereplication_target:(Recovery.Fixed 2)
          ~bandwidth:infinity ()
      in
      let healed =
        Engine.run_faulty ~recovery instance realization ~faults
          ~placement:(Helpers.holders (placement ())) ~order
      in
      let passive =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders (placement ())) ~order
      in
      healed.Engine.stranded = []
      && healed.Engine.completed = n
      && List.length healed.Engine.stranded
         <= List.length passive.Engine.stranded)

(* Checkpoint dominance, in the regime where it is pointwise: one task
   on one machine under outage-only traces. Banked progress can only
   bring the single finish time forward. (With multiple tasks and
   machines, list-scheduling anomalies a la Graham can invert it.) *)
let ckpt_scenario_gen =
  QCheck.Gen.(
    let* outages = int_range 1 4 in
    let* interval = float_range 0.1 3.0 in
    let* seed = int_bound 1_000_000 in
    return (outages, interval, seed))

let ckpt_scenario =
  QCheck.make
    ~print:(fun (o, c, seed) ->
      Printf.sprintf "outages=%d c=%.3f seed=%d" o c seed)
    ckpt_scenario_gen

let prop_checkpoint_dominates_restart =
  QCheck.Test.make
    ~name:"checkpointing never worsens a single-machine outage run"
    ~count:300 ckpt_scenario (fun (outages, interval, seed) ->
      let rng = Rng.create ~seed () in
      let actual = Rng.float_range rng ~lo:2.0 ~hi:15.0 in
      let instance =
        Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| actual |]
      in
      let realization = Realization.exact instance in
      let placement () = [| Bitset.full 1 |] in
      let order = submission_order 1 in
      let events =
        List.init outages (fun _ ->
            let t = Rng.float_range rng ~lo:0.0 ~hi:(3.0 *. actual) in
            let d = Rng.float_range rng ~lo:0.2 ~hi:4.0 in
            outage ~machine:0 ~time:t ~until:(t +. d))
      in
      let faults = Trace.of_events ~m:1 events in
      let restart =
        Engine.run_faulty instance realization ~faults
          ~placement:(Helpers.holders (placement ())) ~order
      in
      let ckpt =
        Engine.run_faulty
          ~recovery:(Recovery.make ~checkpoint_interval:interval ())
          instance realization ~faults ~placement:(Helpers.holders (placement ())) ~order
      in
      restart.Engine.completed = 1
      && ckpt.Engine.completed = 1
      && ckpt.Engine.makespan <= restart.Engine.makespan +. 1e-9
      && ckpt.Engine.wasted <= restart.Engine.wasted +. 1e-9)

(* Locality under healing: a task may legitimately finish on a machine
   outside its original placement, but only after a completed transfer
   delivered the data there. *)
let prop_transfer_locality =
  QCheck.Test.make
    ~name:"off-placement finishes are explained by a completed transfer"
    ~count:300 scenario (fun s ->
      let instance, realization, placement, order, faults = build s in
      let recovery =
        Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:2.0 ()
      in
      let original = Array.map Bitset.copy placement in
      let outcome, events =
        Engine.run_faulty_traced ~recovery instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      Array.for_all (fun j ->
          match outcome.Engine.fates.(j) with
          | Engine.Stranded -> true
          | Engine.Finished e ->
              Bitset.mem original.(j) e.Schedule.machine
              || List.exists
                   (function
                     | Engine.Rereplication_completed { task; dst; _ } ->
                         task = j && dst = e.Schedule.machine
                     | _ -> false)
                   events)
        (Array.init (Instance.n instance) (fun j -> j)))

(* Variable-degree plumbing, pinned against the fixed path: on the ring
   placements every task has exactly [k] replicas, so healing back to
   each task's own phase-1 degree must be bit-for-bit healing to
   [Fixed k] — outcomes, floats, events, and metrics. *)
let prop_degree_equals_fixed_on_uniform =
  QCheck.Test.make
    ~name:"Degree target = Fixed k on uniform-degree placements" ~count:300
    scenario (fun ((_, _, k, _, _) as s) ->
      let instance, realization, placement, order, faults = build s in
      let run target =
        let recovery =
          Recovery.make ~detection_latency:0.3 ~rereplication_target:target
            ~bandwidth:2.0 ~checkpoint_interval:1.0 ()
        in
        Engine.run_faulty_traced ~recovery instance realization ~faults
          ~placement:(Helpers.holders (Array.map Bitset.copy placement))
          ~order
      in
      let a, ev_a = run (Recovery.Fixed k) in
      let b, ev_b = run Recovery.Degree in
      outcomes_identical a b && ev_a = ev_b)

(* Recovery runs remain deterministic: two identical invocations produce
   identical outcomes, events included. *)
let prop_recovery_deterministic =
  QCheck.Test.make ~name:"recovery runs are deterministic" ~count:150 scenario
    (fun s ->
      let instance, realization, placement, order, faults = build s in
      let recovery =
        Recovery.make ~detection_latency:0.5 ~rereplication_target:(Recovery.Fixed 2)
          ~bandwidth:1.0 ~checkpoint_interval:1.0 ()
      in
      let run () =
        Engine.run_faulty_traced ~recovery instance realization ~faults
          ~placement:(Helpers.holders (Array.map Bitset.copy placement))
          ~order
      in
      let a, ev_a = run () in
      let b, ev_b = run () in
      outcomes_identical a b && ev_a = ev_b)

(* --- Copy on heal --- *)

(* A replay reads the placement's interned sets in place and heals on
   its own copy: a landed re-replication interns a grown set and moves
   its task, which in the placement itself would change every later
   replay. No replication (k = 1) with a target of 2 re-replicates
   every task, and crashes strand some of the grown sets again. *)
let heal_fixture seed =
  let m = 6 and n = 40 in
  let rng = Rng.create ~seed () in
  let instance =
    Usched_model.Workload.generate
      (Usched_model.Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~n ~m ~alpha:(Uncertainty.alpha 2.0) rng
  in
  let realization = Realization.log_uniform_factor instance rng in
  let placement =
    (Usched_core.Strategy.build (No_replication Lpt) ~m).Usched_core.Two_phase.phase1
      instance
  in
  let faults = Trace.random_crashes rng ~m ~p:0.3 ~horizon:30.0 in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:2.0 ()
  in
  (instance, realization, placement, faults, recovery)

let snapshot holders =
  ( Usched_model.Set_table.count holders.Helpers.Holders.table,
    Array.copy holders.Helpers.Holders.index )

let heal_twice_on_one_placement () =
  let rereplications = ref 0 in
  for seed = 1 to 8 do
    let instance, realization, placement, faults, recovery = heal_fixture seed in
    let holders = Usched_core.Placement.sets placement in
    let before = snapshot holders in
    let order = Instance.lpt_order instance in
    let replay () =
      Helpers.sink_bytes (fun sink ->
          Engine.run_faulty ~recovery ~metrics:(Metrics.create ()) ~sink instance
            realization ~faults ~placement:holders ~order)
    in
    let first, bytes = replay () in
    let _, again = replay () in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: the same trace twice" seed)
      bytes again;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: the placement's sets and index are unchanged" seed)
      true (snapshot holders = before);
    match Metrics.find first.Engine.metrics "engine.rereplications" with
    | Some (Metrics.Counter k) -> rereplications := !rereplications + k
    | _ -> ()
  done;
  Alcotest.(check bool) "the healer ran" true (!rereplications > 0)

(* Domains replay one shared placement at once: every corner of the
   speed adversary is a healing replay of the same interned sets, and
   Monte-Carlo survival reads them from every domain. N domains must
   give 1 domain's result bit for bit, and leave the placement as it
   was. *)
let domains_share_one_placement () =
  let instance, realization, placement, faults, recovery = heal_fixture 3 in
  let m = Instance.m instance in
  let holders = Usched_core.Placement.sets placement in
  let before = snapshot holders in
  let order = Instance.lpt_order instance in
  let band = Usched_model.Speed_band.uniform ~m ~lo:0.5 ~hi:1.5 in
  let run speeds =
    (Engine.run_faulty ~speeds ~recovery instance realization ~faults
       ~placement:holders ~order)
      .Engine.makespan
  in
  let base = Usched_core.Speed_adversary.exhaustive ~domains:1 ~run band in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "speed adversary: %d domains = 1 domain" domains)
        true
        (Usched_core.Speed_adversary.exhaustive ~domains ~run band = base))
    [ 2; 3 ];
  let profile = Usched_model.Failure.uniform ~m ~p:0.2 in
  let survival domains =
    Usched_experiments.Reliability_sweep.monte_carlo_survival ~trials:200 ~domains
      ~seed:9 ~profile placement
  in
  Alcotest.(check bool) "Monte-Carlo survival: 3 domains = 1 domain" true
    (survival 3 = survival 1);
  Alcotest.(check bool) "the shared placement is unchanged" true
    (snapshot holders = before)

let () =
  Alcotest.run "recovery"
    [
      ( "policy",
        [
          Alcotest.test_case "validation" `Quick policy_validation;
          Alcotest.test_case "target grammar" `Quick target_grammar;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "healer rescues a singleton task" `Quick
            heal_rescues_singleton;
          Alcotest.test_case "detection latency delays re-dispatch" `Quick
            detection_latency_delays_redispatch;
          Alcotest.test_case "checkpoint resumes on rejoin" `Quick
            checkpoint_resume_on_rejoin;
          Alcotest.test_case "a crash destroys the local checkpoint" `Quick
            crash_destroys_checkpoint;
        ] );
      ( "copy on heal",
        [
          Alcotest.test_case "two healing replays of one placement" `Quick
            heal_twice_on_one_placement;
          Alcotest.test_case "domains share one placement" `Quick
            domains_share_one_placement;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_none_is_golden;
            prop_neutral_policy_is_transparent;
            prop_healing_unstrands;
            prop_checkpoint_dominates_restart;
            prop_transfer_locality;
            prop_degree_equals_fixed_on_uniform;
            prop_recovery_deterministic;
          ] );
    ]
