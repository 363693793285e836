(* Tests for timelines and utilization statistics. *)

module Timeline = Usched_desim.Timeline
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let entry machine start finish = { Schedule.machine; start; finish }

let stats_basic () =
  let s =
    Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 3.0 5.0; entry 1 0.0 1.0 |]
  in
  let stats = Timeline.machine_stats s in
  let m0 = stats.(0) and m1 = stats.(1) in
  close "m0 busy" 4.0 m0.Timeline.busy;
  close "m0 finish" 5.0 m0.Timeline.finish;
  Alcotest.(check int) "m0 tasks" 2 m0.Timeline.tasks;
  close "m0 idle gap" 1.0 m0.Timeline.idle_before_finish;
  close "m1 busy" 1.0 m1.Timeline.busy;
  Alcotest.(check int) "m1 tasks" 1 m1.Timeline.tasks

(* The utilization [render_stats] reports, as a fraction. *)
let utilization s =
  let line =
    List.find
      (String.starts_with ~prefix:"utilization:")
      (String.split_on_char '\n' (Timeline.render_stats s))
  in
  Scanf.sscanf line "utilization: %f%%" (fun p -> p /. 100.0)

let utilization_perfect () =
  let s = Schedule.make ~m:2 [| entry 0 0.0 3.0; entry 1 0.0 3.0 |] in
  close "fully busy" 1.0 (utilization s)

let utilization_half () =
  (* One machine busy 4, the other idle: 4 / (2*4) = 0.5. *)
  let s = Schedule.make ~m:2 [| entry 0 0.0 4.0 |] in
  close "half" 0.5 (utilization s)

let utilization_empty () =
  close "empty schedule" 0.0 (utilization (Schedule.make ~m:3 [||]))

let engine_schedules_have_no_gaps () =
  (* The engine never leaves a machine idle while it has eligible
     work, so idle_before_finish must be 0 everywhere. *)
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.0)
      [| 4.0; 3.0; 3.0; 2.0; 2.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.init 6 (fun _ -> Bitset.full 3) in
  let s =
    Engine.run instance realization ~placement:(Helpers.holders placement)
      ~order:(Array.init 6 (fun j -> j))
  in
  Array.iter
    (fun stat -> close "no internal idleness" 0.0 stat.Timeline.idle_before_finish)
    (Timeline.machine_stats s)

let render_events_format () =
  let events =
    [
      Engine.Started { time = 0.0; machine = 1; task = 4 };
      Engine.Completed { time = 2.5; machine = 1; task = 4 };
    ]
  in
  let text = Timeline.render_events events in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "start line" true (contains "start    task 4");
  checkb "complete line" true (contains "complete task 4");
  checkb "machine" true (contains "m1")

let render_stats_mentions_utilization () =
  let s = Schedule.make ~m:1 [| entry 0 0.0 1.0 |] in
  let text = Timeline.render_stats s in
  checkb "has utilization line" true
    (String.length text > 0
    &&
    let needle = "utilization" in
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0)

(* Oracle: the O(n·m) definition, one [Schedule.machine_tasks] scan per
   machine, folding busy time and finish in (start, id) order. *)
let machine_stats_oracle schedule =
  Array.init (Schedule.m schedule) (fun i ->
      let tasks = Helpers.machine_tasks schedule i in
      let busy, finish =
        List.fold_left
          (fun (busy, finish) task ->
            let e = Schedule.entry schedule task in
            ( busy +. (e.Schedule.finish -. e.Schedule.start),
              Float.max finish e.Schedule.finish ))
          (0.0, 0.0) tasks
      in
      {
        Timeline.machine = i;
        busy;
        finish;
        tasks = List.length tasks;
        idle_before_finish = finish -. busy;
      })

let bits = Int64.bits_of_float

let same_stats (a : Timeline.machine_stats) (b : Timeline.machine_stats) =
  a.machine = b.machine && a.tasks = b.tasks
  && bits a.busy = bits b.busy
  && bits a.finish = bits b.finish
  && bits a.idle_before_finish = bits b.idle_before_finish

(* Random schedules whose starts come from a small grid, so ties are
   common and the tie order (task id) matters; overlaps are allowed. *)
let random_schedule (m, n, seed) =
  let rng = Random.State.make [| seed |] in
  Schedule.make ~m
    (Array.init n (fun _ ->
         let start = 0.5 *. float_of_int (Random.State.int rng 6) in
         {
           Schedule.machine = Random.State.int rng m;
           start;
           finish = start +. Random.State.float rng 3.0;
         }))

let schedule_arb = QCheck.(triple (int_range 1 6) (int_bound 60) int)

let prop_stats_match_oracle =
  QCheck.Test.make ~name:"machine_stats = the per-machine-scan definition, bit for bit"
    ~count:300 schedule_arb (fun params ->
      let s = random_schedule params in
      let stats = Timeline.machine_stats s and oracle = machine_stats_oracle s in
      Array.length stats = Array.length oracle && Array.for_all2 same_stats stats oracle)

(* Struct-of-arrays lanes whose starts never decrease per machine in
   id order, with ties on a half-unit grid, so [machine_stats] sums in
   one pass; when [decrease] is set, one task starts before its
   machine's previous task and the buckets decide instead. *)
let ordered_lanes (m, n, seed, decrease) =
  let rng = Random.State.make [| seed |] in
  let last = Array.make m 0.0 in
  let machines = Array.init n (fun _ -> Random.State.int rng m) in
  let starts =
    Array.map
      (fun i ->
        last.(i) <- last.(i) +. (0.5 *. float_of_int (Random.State.int rng 3));
        last.(i))
      machines
  in
  (if decrease && n > 0 then
     let j = Random.State.int rng n in
     starts.(j) <- Float.max 0.0 (starts.(j) -. 1.0));
  let finishes = Array.map (fun start -> start +. Random.State.float rng 3.0) starts in
  Schedule.of_soa ~m ~machines ~starts ~finishes

(* Replays in LPT order start long tasks first whatever their ids, so
   per-machine starts decrease in id order; submission order keeps
   them increasing. *)
let replay (m, n, seed, lpt) =
  let rng = Random.State.make [| seed |] in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0)
      (Array.init n (fun _ -> float_of_int (1 + Random.State.int rng 4)))
  in
  let placement =
    Array.init n (fun _ ->
        let set = Bitset.singleton m (Random.State.int rng m) in
        Bitset.add set (Random.State.int rng m);
        set)
  in
  let order = if lpt then Instance.lpt_order instance else Array.init n Fun.id in
  Engine.run instance (Realization.exact instance)
    ~placement:(Helpers.holders placement) ~order

let prop_one_pass_matches_buckets =
  QCheck.Test.make
    ~name:"machine_stats = buckets on ordered and decreasing lanes and on LPT replays"
    ~count:400
    QCheck.(quad (int_range 1 6) (int_bound 60) int bool)
    (fun (m, n, seed, flag) ->
      List.for_all
        (fun s ->
          let stats = Timeline.machine_stats s and oracle = machine_stats_oracle s in
          Array.length stats = Array.length oracle && Array.for_all2 same_stats stats oracle)
        [ ordered_lanes (m, n, seed, flag); replay (m, n, seed, flag) ])

let () =
  Alcotest.run "timeline"
    [
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick stats_basic;
          Alcotest.test_case "full utilization" `Quick utilization_perfect;
          Alcotest.test_case "half utilization" `Quick utilization_half;
          Alcotest.test_case "empty" `Quick utilization_empty;
          Alcotest.test_case "engine leaves no gaps" `Quick
            engine_schedules_have_no_gaps;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "events" `Quick render_events_format;
          Alcotest.test_case "stats table" `Quick render_stats_mentions_utilization;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_stats_match_oracle; prop_one_pass_matches_buckets ] );
    ]
