(* Unit and property tests for the phase-2 execution engine. *)

module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let submission_order n = Array.init n (fun j -> j)

let instance_of ests =
  Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) ests

let graham_ls_example () =
  (* 4 tasks (3,3,2,2) on 2 machines, submission order: t0->m0, t1->m1,
     then at time 3 both idle, t2->m0, t3->m1. Makespan 5. *)
  let instance = instance_of [| 3.0; 3.0; 2.0; 2.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 4 (fun _ -> Bitset.full 2) in
  let s = Engine.run instance realization ~placement ~order:(submission_order 4) in
  close "makespan" 5.0 (Schedule.makespan s);
  Alcotest.(check (array int)) "round robin by idleness" [| 0; 1; 0; 1 |]
    (Helpers.assignment s)

let online_lpt_order () =
  (* Order by decreasing estimate changes who goes first. *)
  let instance = instance_of [| 1.0; 5.0; 3.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 3 (fun _ -> Bitset.full 2) in
  let order = [| 1; 2; 0 |] in
  let s = Engine.run instance realization ~placement ~order in
  Alcotest.(check int) "longest first on machine 0" 0 (Helpers.machine_of s 1);
  Alcotest.(check int) "second on machine 1" 1 (Helpers.machine_of s 2);
  (* Machine 1 (busy 3.0) frees before machine 0 (busy 5.0). *)
  Alcotest.(check int) "third to first idle" 1 (Helpers.machine_of s 0);
  close "makespan" 5.0 (Schedule.makespan s)

let respects_singleton_placement () =
  let instance = instance_of [| 1.0; 1.0; 1.0; 1.0 |] in
  let realization = Realization.exact instance in
  (* All pinned to machine 1. *)
  let placement = Array.init 4 (fun _ -> Bitset.singleton 2 1) in
  let s = Engine.run instance realization ~placement ~order:(submission_order 4) in
  close "serialized" 4.0 (Schedule.makespan s);
  Array.iteri
    (fun j _ -> Alcotest.(check int) "on machine 1" 1 (Helpers.machine_of s j))
    (Instance.tasks instance)

let respects_group_placement () =
  let instance =
    Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.0)
      [| 2.0; 2.0; 2.0; 2.0; 2.0; 2.0 |]
  in
  let realization = Realization.exact instance in
  let g0 = Bitset.of_list 4 [ 0; 1 ] and g1 = Bitset.of_list 4 [ 2; 3 ] in
  let placement = [| g0; g0; g0; g1; g1; g1 |] in
  let s = Engine.run instance realization ~placement ~order:(submission_order 6) in
  List.iter
    (fun j ->
      checkb "group 0 tasks stay in group 0" true (Helpers.machine_of s j < 2))
    [ 0; 1; 2 ];
  List.iter
    (fun j ->
      checkb "group 1 tasks stay in group 1" true (Helpers.machine_of s j >= 2))
    [ 3; 4; 5 ];
  close "balanced inside groups" 4.0 (Schedule.makespan s)

let semi_clairvoyance () =
  (* Actual times differ from estimates; dispatch happens at *actual* idle
     times: t0 est 4 actual 1 on m0, t1 est 3 actual 6 on m1; the third
     task must go to m0, which frees first in reality. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 4.0) [| 4.0; 3.0; 1.0 |]
  in
  let realization = Realization.of_actuals instance [| 1.0; 6.0; 1.0 |] in
  let placement = Array.init 3 (fun _ -> Bitset.full 2) in
  let order = [| 0; 1; 2 |] in
  let s = Engine.run instance realization ~placement ~order in
  Alcotest.(check int) "third task follows actual idleness" 0
    (Helpers.machine_of s 2);
  close "makespan" 6.0 (Schedule.makespan s)

let deterministic_tie_breaking () =
  let instance = instance_of [| 1.0; 1.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 2 (fun _ -> Bitset.full 2) in
  let s = Engine.run instance realization ~placement ~order:(submission_order 2) in
  (* Both machines idle at 0; lower machine id serves the first task. *)
  Alcotest.(check int) "task 0 on machine 0" 0 (Helpers.machine_of s 0);
  Alcotest.(check int) "task 1 on machine 1" 1 (Helpers.machine_of s 1)

let rejects_empty_placement () =
  let instance = instance_of [| 1.0 |] in
  let realization = Realization.exact instance in
  let placement = [| Bitset.create 2 |] in
  Alcotest.check_raises "empty set"
    (Invalid_argument "Engine.run: task 0 is placed nowhere") (fun () ->
      ignore (Engine.run instance realization ~placement ~order:[| 0 |]))

let rejects_bad_order () =
  let instance = instance_of [| 1.0; 1.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 2 (fun _ -> Bitset.full 2) in
  Alcotest.check_raises "duplicate order"
    (Invalid_argument "Engine.run: order is not a permutation of task ids")
    (fun () -> ignore (Engine.run instance realization ~placement ~order:[| 0; 0 |]))

let rejects_wrong_capacity () =
  let instance = instance_of [| 1.0 |] in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 3 |] in
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Engine.run: placement of task 0 has wrong capacity")
    (fun () -> ignore (Engine.run instance realization ~placement ~order:[| 0 |]))

let trace_is_chronological_and_complete () =
  let instance = instance_of [| 2.0; 1.0; 1.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 3 (fun _ -> Bitset.full 2) in
  let _, events =
    Engine.run_traced instance realization ~placement ~order:(submission_order 3)
  in
  let times =
    List.map
      (function
        | Engine.Started { time; _ } | Engine.Completed { time; _ } -> time
        | _ -> Alcotest.fail "run_traced emitted a fault event")
      events
  in
  Alcotest.(check int) "2 events per task" 6 (List.length events);
  checkb "sorted by time" true (List.sort Float.compare times = times)

(* A healthy run is the faulty loop on the empty trace, record for
   record. Identical estimates make every completion instant shared by
   all machines: each machine's completion is followed by its next
   start before the next machine's completion, and a sink receives the
   same bytes from both entry points. *)
let healthy_trace_is_empty_trace_faulty () =
  let m = 3 in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) (Array.make 9 2.0) in
  let realization = Realization.exact instance in
  let placement = Array.init 9 (fun _ -> Bitset.full m) in
  let order = submission_order 9 in
  let _, healthy =
    Helpers.sink_bytes (fun sink ->
        Engine.run ~sink instance realization ~placement ~order)
  in
  let _, faulty =
    Helpers.sink_bytes (fun sink ->
        Engine.run_faulty ~sink instance realization
          ~faults:(Usched_faults.Trace.empty ~m) ~placement ~order)
  in
  Alcotest.(check string) "sink bytes" faulty healthy;
  let lines = String.split_on_char '\n' healthy in
  Alcotest.(check string) "machine 0's next start follows its completion"
    {|{"type":"event","kind":"started","t":2,"machine":0,"task":3}|}
    (List.nth lines 4)

let no_idle_while_work_eligible () =
  (* Graham's property: when every task is eligible everywhere, no machine
     idles while unscheduled tasks remain. Check via start times: task
     start <= sum of all previous finish "gaps" — simpler: every start
     time equals some earlier finish time or 0. *)
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 20 do
    let n = 5 + Rng.int rng 20 in
    let ests = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
    let instance = Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.0) ests in
    let realization = Realization.exact instance in
    let placement = Array.init n (fun _ -> Bitset.full 3) in
    let s = Engine.run instance realization ~placement ~order:(submission_order n) in
    (* List scheduling bound must hold. *)
    let total = Array.fold_left ( +. ) 0.0 ests in
    let pmax = Array.fold_left Float.max 0.0 ests in
    checkb "LS bound" true
      (Schedule.makespan s <= (total /. 3.0) +. (2.0 /. 3.0 *. pmax) +. 1e-9)
  done

let stress_large_instance () =
  (* 100k tasks on 64 machines, full replication: the cursor-based scan
     must stay near O(m*n). Checks completion and the LS bound. *)
  let n = 100_000 and m = 64 in
  let rng = Rng.create ~seed:77 () in
  let ests = Array.init n (fun _ -> 0.1 +. Rng.float rng) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) ests in
  let realization = Realization.exact instance in
  let placement = Array.init n (fun _ -> Bitset.full m) in
  let started = Unix.gettimeofday () in
  let s = Engine.run instance realization ~placement ~order:(submission_order n) in
  let elapsed = Unix.gettimeofday () -. started in
  let total = Array.fold_left ( +. ) 0.0 ests in
  let pmax = Array.fold_left Float.max 0.0 ests in
  checkb "LS bound at scale" true
    (Schedule.makespan s
    <= (total /. float_of_int m) +. ((float_of_int (m - 1) /. float_of_int m) *. pmax) +. 1e-6);
  checkb "finishes in reasonable time" true (elapsed < 30.0)

let stress_group_placement () =
  (* 50k tasks in 8 groups: per-machine cursors skip foreign-group tasks
     permanently, so this must not be quadratic either. *)
  let n = 50_000 and m = 32 in
  let rng = Rng.create ~seed:78 () in
  let ests = Array.init n (fun _ -> 0.1 +. Rng.float rng) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) ests in
  let realization = Realization.exact instance in
  let group_sets =
    Array.init 8 (fun g -> Bitset.of_list m (List.init 4 (fun i -> (4 * g) + i)))
  in
  let placement = Array.init n (fun j -> group_sets.(j mod 8)) in
  let started = Unix.gettimeofday () in
  let s = Engine.run instance realization ~placement ~order:(submission_order n) in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check int) "all tasks scheduled" n (Schedule.n s);
  checkb "finishes in reasonable time" true (elapsed < 30.0)

let prop_valid_schedules =
  QCheck.Test.make ~name:"engine output always validates" ~count:200
    QCheck.(
      triple (int_range 1 6)
        (list_of_size Gen.(int_range 1 25) (float_range 0.1 10.0))
        (int_bound 1000))
    (fun (m, ests, seed) ->
      let n = List.length ests in
      let instance =
        Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) (Array.of_list ests)
      in
      let rng = Rng.create ~seed ()  in
      let realization = Realization.uniform_factor instance rng in
      (* Random placement: each task gets a random nonempty machine set. *)
      let placement =
        Array.init n (fun _ ->
            let set = Bitset.create m in
            Bitset.add set (Rng.int rng m);
            for i = 0 to m - 1 do
              if Rng.bernoulli rng ~p:0.3 then Bitset.add set i
            done;
            set)
      in
      let order = Array.init n (fun j -> j) in
      Helpers.shuffle rng order;
      let s = Engine.run instance realization ~placement ~order in
      Schedule.validate ~placement instance realization s = []
      && Schedule.n s = n)

let prop_trace_matches_schedule =
  QCheck.Test.make ~name:"trace events agree with the schedule" ~count:150
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 15) (float_range 0.1 5.0)))
    (fun (m, ests) ->
      let n = List.length ests in
      let instance =
        Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) (Array.of_list ests)
      in
      let realization = Realization.exact instance in
      let placement = Array.init n (fun _ -> Bitset.full m) in
      let schedule, events =
        Engine.run_traced instance realization ~placement
          ~order:(Array.init n (fun j -> j))
      in
      List.for_all
        (fun event ->
          match event with
          | Engine.Started { time; machine; task } ->
              let e = Schedule.entry schedule task in
              e.Schedule.machine = machine
              && Float.abs (e.Schedule.start -. time) < 1e-12
          | Engine.Completed { time; machine; task } ->
              let e = Schedule.entry schedule task in
              e.Schedule.machine = machine
              && Float.abs (e.Schedule.finish -. time) < 1e-12
          | _ -> false (* run_traced never emits fault events *))
        events
      && List.length events = 2 * n)

let prop_makespan_is_max_load =
  QCheck.Test.make ~name:"makespan equals max machine load (no idle gaps)"
    ~count:200
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_range 1 20) (float_range 0.1 5.0)))
    (fun (m, ests) ->
      let n = List.length ests in
      let instance =
        Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) (Array.of_list ests)
      in
      let realization = Realization.exact instance in
      let placement = Array.init n (fun _ -> Bitset.full m) in
      let s =
        Engine.run instance realization ~placement
          ~order:(Array.init n (fun j -> j))
      in
      let max_load = Array.fold_left Float.max 0.0 (Helpers.loads s) in
      Float.abs (Schedule.makespan s -. max_load) < 1e-9)

(* ------------------------- JSON serialization ----------------------- *)

module Json = Usched_report.Json
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace

let checks = Alcotest.(check string)

let event_json_records () =
  List.iter
    (fun (event, expected) -> checks expected expected (Json.to_string (Engine.event_json event)))
    [
      ( Engine.Arrived { time = 0.5; task = 3 },
        {|{"type":"event","kind":"arrived","t":0.5,"task":3}|} );
      ( Engine.Started { time = 1.0; machine = 2; task = 7 },
        {|{"type":"event","kind":"started","t":1,"machine":2,"task":7}|} );
      ( Engine.Machine_down { time = 2.0; machine = 1; until = 4.5 },
        {|{"type":"event","kind":"machine_down","t":2,"machine":1,"until":4.5}|} );
      ( Engine.Machine_slowed { time = 3.0; machine = 0; factor = 0.25 },
        {|{"type":"event","kind":"machine_slowed","t":3,"machine":0,"factor":0.25}|} );
      ( Engine.Rereplication_aborted { time = 6.0; task = 4; src = 0; dst = 1 },
        {|{"type":"event","kind":"rereplication_aborted","t":6,"task":4,"src":0,"dst":1}|} );
      ( Engine.Checkpoint_resumed { time = 7.0; machine = 3; task = 5; progress = 1.5 },
        {|{"type":"event","kind":"checkpoint_resumed","t":7,"machine":3,"task":5,"progress":1.5}|} );
    ];
  (* JSON has no infinity: a non-finite time renders as null. *)
  checks "non-finite until is null"
    {|{"type":"event","kind":"machine_down","t":1,"machine":0,"until":null}|}
    (Json.to_string
       (Engine.event_json (Engine.Machine_down { time = 1.0; machine = 0; until = infinity })))

let traced_events_serialize () =
  let instance = instance_of [| 3.0; 1.0; 2.0; 2.0; 1.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 5 (fun _ -> Bitset.full 2) in
  let _, events =
    Engine.run_traced instance realization ~placement ~order:(submission_order 5)
  in
  let records = List.map Engine.event_json events in
  let kind r =
    match Json.member "kind" r with Some (Json.String k) -> k | _ -> "?"
  in
  let time r =
    match Json.member "t" r with
    | Some (Json.Int t) -> float_of_int t
    | Some (Json.Float t) -> t
    | _ -> Float.nan
  in
  List.iter
    (fun r ->
      checkb "record re-renders identically after parsing" true
        (Result.map Json.to_string (Json.of_string (Json.to_string r))
        = Ok (Json.to_string r));
      checkb "typed as an event" true (Json.member "type" r = Some (Json.String "event")))
    records;
  let count k = List.length (List.filter (fun r -> kind r = k) records) in
  Alcotest.(check int) "one start per task" 5 (count "started");
  Alcotest.(check int) "one completion per task" 5 (count "completed");
  let times = List.map time records in
  checkb "times non-decreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, Float.neg_infinity) times))

let outcome_json_record () =
  (* Task 1's only holder crashes before it runs: it strands. *)
  let instance = instance_of [| 2.0; 2.0; 1.0 |] in
  let realization = Realization.exact instance in
  let placement =
    [| Bitset.singleton 2 0; Bitset.singleton 2 1; Bitset.full 2 |]
  in
  let faults =
    Trace.of_events ~m:2 [ { Fault.machine = 1; time = 1.0; kind = Fault.Crash } ]
  in
  let outcome =
    Engine.run_faulty instance realization ~faults ~placement
      ~order:(submission_order 3)
  in
  let record = Engine.outcome_json outcome in
  checkb "typed as the outcome" true
    (Json.member "type" record = Some (Json.String "outcome"));
  checkb "completed count" true
    (Json.member "completed" record = Some (Json.Int outcome.Engine.completed));
  checkb "stranded ids" true
    (Json.member "stranded" record = Some (Json.List [ Json.Int 1 ]));
  checkb "makespan" true
    (Json.member "makespan" record = Some (Json.float outcome.Engine.makespan));
  checkb "wasted work" true
    (Json.member "wasted" record = Some (Json.float outcome.Engine.wasted));
  checkb "metrics object" true
    (match Json.member "metrics" record with Some (Json.Obj _) -> true | _ -> false);
  checkb "re-renders identically after parsing" true
    (Result.map Json.to_string (Json.of_string (Json.to_string record))
    = Ok (Json.to_string record))

let () =
  Alcotest.run "engine"
    [
      ( "unit",
        [
          Alcotest.test_case "Graham LS example" `Quick graham_ls_example;
          Alcotest.test_case "online LPT order" `Quick online_lpt_order;
          Alcotest.test_case "singleton placement" `Quick respects_singleton_placement;
          Alcotest.test_case "group placement" `Quick respects_group_placement;
          Alcotest.test_case "semi-clairvoyance" `Quick semi_clairvoyance;
          Alcotest.test_case "tie breaking" `Quick deterministic_tie_breaking;
          Alcotest.test_case "rejects empty placement" `Quick rejects_empty_placement;
          Alcotest.test_case "rejects bad order" `Quick rejects_bad_order;
          Alcotest.test_case "rejects wrong capacity" `Quick rejects_wrong_capacity;
          Alcotest.test_case "trace" `Quick trace_is_chronological_and_complete;
          Alcotest.test_case "healthy trace is the empty-trace faulty trace"
            `Quick healthy_trace_is_empty_trace_faulty;
          Alcotest.test_case "LS bound sanity" `Quick no_idle_while_work_eligible;
        ] );
      ( "json",
        [
          Alcotest.test_case "event records" `Quick event_json_records;
          Alcotest.test_case "traced events serialize" `Quick
            traced_events_serialize;
          Alcotest.test_case "outcome record" `Quick outcome_json_record;
        ] );
      ( "stress",
        [
          Alcotest.test_case "100k tasks full replication" `Slow
            stress_large_instance;
          Alcotest.test_case "50k tasks in groups" `Slow stress_group_placement;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_valid_schedules;
            prop_makespan_is_max_load;
            prop_trace_matches_schedule;
          ] );
    ]
