(* Streaming service mode: arrival-process validation and generation,
   the Event_heap ordering contract under mid-drain arrival injection,
   the golden pin that a stream with every arrival at t=0 reproduces the
   batch engine bit-for-bit, FCFS latency hand-checks, and the
   replicate-on-straggler / cancel-on-first-completion policy. *)

module Engine = Usched_desim.Engine
module Event_heap = Usched_desim.Event_heap
module Arrival = Usched_desim.Arrival
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Metrics = Usched_obs.Metrics
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* ------------------------- arrival processes ------------------------ *)

let nondecreasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(i - 1) then ok := false
  done;
  !ok

let arrival_constructors () =
  checkb "poisson rejects 0" true (raises_invalid (fun () -> Arrival.poisson ~rate:0.0));
  checkb "poisson rejects nan" true
    (raises_invalid (fun () -> Arrival.poisson ~rate:Float.nan));
  checkb "mmpp rejects empty" true (Result.is_error (Arrival.of_string "mmpp::1"));
  checkb "mmpp rejects all-zero" true
    (Result.is_error (Arrival.of_string "mmpp:0,0:1"));
  checkb "mmpp accepts silence states" true
    (Result.is_ok (Arrival.of_string "mmpp:4,0:10"));
  checkb "trace rejects decreasing" true
    (raises_invalid (fun () -> Arrival.trace [| 1.0; 0.5 |]));
  checkb "trace rejects negative" true
    (raises_invalid (fun () -> Arrival.trace [| -1.0 |]));
  checkb "trace rejects nan" true
    (raises_invalid (fun () -> Arrival.trace [| Float.nan |]))

let arrival_generate () =
  let rng () = Rng.create ~seed:11 () in
  let a = Arrival.generate (Arrival.poisson ~rate:2.0) (rng ()) ~count:200 in
  checki "count" 200 (Array.length a);
  checkb "nondecreasing" true (nondecreasing a);
  checkb "deterministic" true
    (a = Arrival.generate (Arrival.poisson ~rate:2.0) (rng ()) ~count:200);
  let b =
    match Arrival.of_string "mmpp:5,0:2" with
    | Ok mmpp -> Arrival.generate mmpp (rng ()) ~count:100
    | Error msg -> Alcotest.fail msg
  in
  checkb "mmpp nondecreasing" true (nondecreasing b);
  let t = Arrival.trace [| 0.0; 1.0; 1.0; 4.0 |] in
  checkb "trace replay" true
    (Arrival.generate t (rng ()) ~count:3 = [| 0.0; 1.0; 1.0 |]);
  checkb "trace too short raises" true
    (raises_invalid (fun () -> Arrival.generate t (rng ()) ~count:5))

let arrival_mean_rate () =
  close "poisson" 2.5 (Arrival.mean_rate (Arrival.poisson ~rate:2.5));
  (match Arrival.of_string "mmpp:4,0,2:10" with
  | Ok mmpp -> close "mmpp averages its states" 2.0 (Arrival.mean_rate mmpp)
  | Error msg -> Alcotest.fail msg);
  close "trace: count over span" 2.0
    (Arrival.mean_rate (Arrival.trace [| 0.5; 1.0; 1.5; 2.0 |]));
  close "empty trace" 0.0 (Arrival.mean_rate (Arrival.trace [||]));
  close "all arrivals at time 0" 0.0
    (Arrival.mean_rate (Arrival.trace [| 0.0; 0.0 |]));
  (* The long-run rate is what generation delivers: 4000 Poisson
     arrivals at rate 2 span about 2000 time units. *)
  let a = Arrival.generate (Arrival.poisson ~rate:2.0) (Rng.create ~seed:3 ()) ~count:4000 in
  let empirical = float_of_int (Array.length a) /. a.(Array.length a - 1) in
  checkb
    (Printf.sprintf "empirical rate %.3f within 10%% of 2" empirical)
    true
    (Float.abs (empirical -. 2.0) < 0.2)

let arrival_of_string () =
  let ok s expected =
    match Arrival.of_string s with
    | Ok a -> Alcotest.(check string) s expected (Arrival.describe a)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "rate:2.5" "poisson:2.5";
  ok "poisson:1" "poisson:1";
  ok "mmpp:4,0:10" "mmpp:4,0:10";
  let tmp = Filename.temp_file "arrivals" ".txt" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc "# header comment\n0.5\n\n1.25\n3\n");
  ok (Printf.sprintf "trace:%s" tmp) "trace:<3 arrivals>";
  Sys.remove tmp;
  let rejected s =
    match Arrival.of_string s with
    | Ok _ -> Alcotest.failf "%s accepted" s
    | Error msg ->
        (* Every parse error carries the grammar for the CLI. *)
        checkb
          (Printf.sprintf "%s error carries grammar" s)
          true
          (String.length msg >= String.length Arrival.grammar)
  in
  List.iter rejected
    [
      "rate:0";
      "rate:nan";
      "rate:inf";
      "rate:x";
      "mmpp:4,0";
      "mmpp:a,b:1";
      "mmpp:4,0:0";
      "trace:/nonexistent/arrivals.txt";
      "bogus:1";
      "noseparator";
    ];
  let bad = Filename.temp_file "arrivals" ".txt" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "1.0\n0.5\n");
  rejected (Printf.sprintf "trace:%s" bad);
  Sys.remove bad

(* ---------------- Event_heap ordering under injection ---------------- *)

(* The determinism contract the whole streaming mode leans on: drained
   events come out sorted by (time, machine, class), insertion order
   within ties — including events pushed mid-drain at the current
   instant, which is exactly what an arrival waking idle machines does. *)
let injection_scenario =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 40 in
      return (seed, n))

let prop_ordering_under_injection =
  QCheck.Test.make
    ~name:"drain order is (time, machine, cls, seq) under mid-drain pushes"
    ~count:500 injection_scenario (fun (seed, n) ->
      let rng = Rng.create ~seed () in
      (* Times from a tiny set force heavy ties; machine -1 is the
         virtual arrival source. *)
      let random_key rng ~at_least =
        let time =
          Float.max at_least (float_of_int (Rng.int rng 3))
        in
        let machine = Rng.int rng 4 - 1 in
        let cls = Rng.int rng 4 in
        (time, machine, cls)
      in
      let q = Event_heap.create ~dummy:0 in
      let counter = ref 0 in
      let push (time, machine, cls) =
        Event_heap.push q ~time ~machine ~cls !counter;
        incr counter
      in
      for _ = 1 to n do
        push (random_key rng ~at_least:0.0)
      done;
      let handled = ref [] in
      let budget = ref (3 * n) in
      Helpers.drain q ~handle:(fun ~time ~machine payload ->
          handled := (time, machine, payload) :: !handled;
          (* Inject arrivals and decisions at or after the current
             instant, as [on_arrive]'s wake-ups do. *)
          if !budget > 0 && Rng.bernoulli rng ~p:0.4 then begin
            decr budget;
            push (random_key rng ~at_least:time)
          end);
      let handled = List.rev !handled in
      (* Time, then machine within equal instants; payload ids must rise
         within equal (time, machine) pairs pushed with equal cls — we
         can't observe cls from the handler, so check the weaker chain
         (time, machine) nondecreasing plus global per-key FIFO via a
         reference sort at the end. *)
      let ok = ref true in
      let prev = ref neg_infinity in
      List.iter
        (fun (t, _, _) ->
          if t < !prev then ok := false;
          prev := t)
        handled;
      List.length handled = !counter && !ok)

(* A direct, fully-observable pin of the tie order: equal times, all
   four classes, both the source pseudo-machine and real machines, plus
   an arrival injected mid-drain at the current instant. *)
let ordering_pinned () =
  let q = Event_heap.create ~dummy:0 in
  (* payload = expected drain position. *)
  Event_heap.push q ~time:0.0 ~machine:1 ~cls:Event_heap.cls_decision 4;
  Event_heap.push q ~time:0.0 ~machine:(-1) ~cls:Event_heap.cls_arrival 0;
  Event_heap.push q ~time:0.0 ~machine:0 ~cls:Event_heap.cls_fault 1;
  Event_heap.push q ~time:0.0 ~machine:0 ~cls:Event_heap.cls_audit 3;
  Event_heap.push q ~time:1.0 ~machine:0 ~cls:Event_heap.cls_fault 6;
  let order = ref [] in
  Helpers.drain q ~handle:(fun ~time ~machine:_ payload ->
      (* When the first fault at t=0 fires, a same-instant completion
         lands behind it but before the audit: cls ordering, not push
         order. And a t=1 arrival beats the t=1 fault despite being
         pushed later (machine -1 first). *)
      if payload = 1 then
        Event_heap.push q ~time ~machine:0 ~cls:Event_heap.cls_arrival 2;
      if payload = 3 then
        Event_heap.push q ~time:1.0 ~machine:(-1) ~cls:Event_heap.cls_arrival 5;
      order := payload :: !order);
  Alcotest.(check (list int))
    "class then machine then seq" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.rev !order)

(* ------------------------- the golden pin ---------------------------- *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, seed))

let scenario =
  QCheck.make
    ~print:(fun (n, m, k, seed) ->
      Printf.sprintf "n=%d m=%d k=%d seed=%d" n m k seed)
    scenario_gen

let build (n, m, k, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  (instance, realization, placement, Instance.lpt_order instance)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

(* THE golden property of the streaming tentpole: a stream whose
   arrivals all land at t=0 is the batch engine bit-for-bit — same
   machines, same float start/finish times, whatever the dispatch
   policy, metrics on or off — and its latencies are exactly the finish
   times. *)
let prop_stream_at_zero_is_batch =
  QCheck.Test.make
    ~name:"stream with all arrivals at t=0 reproduces the batch engine"
    ~count:320 scenario (fun ((n, _, _, seed) as s) ->
      let instance, realization, placement, order = build s in
      let dispatch =
        List.nth Dispatch.builtin (seed mod List.length Dispatch.builtin)
      in
      let metrics_on = seed mod 2 = 0 in
      let registry () =
        if metrics_on then Metrics.create () else Metrics.disabled
      in
      let batch =
        Engine.run ~dispatch ~metrics:(registry ()) instance realization
          ~placement:(Helpers.holders placement) ~order
      in
      let so =
        Engine.run_stream ~dispatch ~metrics:(registry ()) instance realization
          ~arrivals:(Array.make n 0.0) ~placement:(Helpers.holders placement) ~order
      in
      let stream_entries =
        Array.map
          (function
            | Engine.Finished e -> e
            | Engine.Stranded -> Alcotest.fail "stranded without faults")
          so.Engine.outcome.Engine.fates
      in
      so.Engine.outcome.Engine.completed = n
      && Array.for_all2 entries_equal
           (Array.init n (Schedule.entry batch))
           stream_entries
      && Array.length so.Engine.latencies = n
      && Array.for_all2
           (fun l (e : Schedule.entry) -> l = e.Schedule.finish)
           so.Engine.latencies stream_entries)

(* Latency accounting holds off the zero point too: finished tasks give
   finish - arrival in task order, stranded tasks are absent. *)
let prop_latencies_match_fates =
  QCheck.Test.make ~name:"latencies = finish - arrival over finished tasks"
    ~count:300 scenario (fun ((n, m, _, seed) as s) ->
      let instance, realization, placement, order = build s in
      let rng = Rng.create ~seed:(seed + 1) () in
      let arrivals =
        Arrival.generate (Arrival.poisson ~rate:1.5) rng ~count:n
      in
      let faults =
        Trace.random_crashes rng ~m ~p:0.3
          ~horizon:(2.0 *. Realization.total realization)
      in
      let so =
        Engine.run_stream ~faults instance realization ~arrivals
          ~placement:(Helpers.holders placement)
          ~order
      in
      let expected = ref [] in
      for j = n - 1 downto 0 do
        match so.Engine.outcome.Engine.fates.(j) with
        | Engine.Finished e ->
            expected := (e.Schedule.finish -. arrivals.(j)) :: !expected
        | Engine.Stranded -> ()
      done;
      Array.to_list so.Engine.latencies = !expected
      && Array.length so.Engine.latencies
         = so.Engine.outcome.Engine.completed
      && Array.for_all (fun l -> l >= 0.0) so.Engine.latencies)

(* ------------------------- hand-checks ------------------------------- *)

(* Single machine, FCFS: arrivals 0/1/2, each task takes exactly 5.
   The queue builds up: waits 0, 4, 8 -> latencies 5, 9, 13. *)
let fcfs_single_machine () =
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 5.0; 5.0; 5.0 |]
  in
  let realization = Realization.exact instance in
  let so =
    Engine.run_stream instance realization ~arrivals:[| 0.0; 1.0; 2.0 |]
      ~placement:(Helpers.holders (Array.make 3 (Bitset.full 1)))
      ~order:[| 0; 1; 2 |]
  in
  checki "all done" 3 so.Engine.outcome.Engine.completed;
  close "drain" 15.0 so.Engine.outcome.Engine.makespan;
  Alcotest.(check (array (float 1e-9)))
    "latencies" [| 5.0; 9.0; 13.0 |] so.Engine.latencies

(* A task arriving while every machine is busy must wait even though it
   is dispatchable; a task arriving after the system drained restarts
   it. *)
let arrival_gap_restarts () =
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 2.0; 3.0 |]
  in
  let realization = Realization.exact instance in
  let so =
    Engine.run_stream instance realization ~arrivals:[| 0.0; 10.0 |]
      ~placement:(Helpers.holders (Array.make 2 (Bitset.full 1)))
      ~order:[| 0; 1 |]
  in
  Alcotest.(check (array (float 1e-9)))
    "idle gap then fresh start" [| 2.0; 3.0 |] so.Engine.latencies;
  close "drain" 13.0 so.Engine.outcome.Engine.makespan

(* Replicate-on-straggler / cancel-on-first-completion: t0's actual is 4x
   its estimate; once it runs past beta=1.5 estimates, idle m1 (a replica
   holder) starts a backup at t=3; the original wins at t=8, the backup
   is cancelled and its 5 machine-time units are credited to wasted. *)
let speculation_cancels_loser () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 4.0) [| 2.0; 2.0 |]
  in
  let realization = Realization.of_actuals instance [| 8.0; 2.0 |] in
  let placement = Array.make 2 (Bitset.full 2) in
  let so, bytes =
    Helpers.sink_bytes (fun sink ->
        Engine.run_stream ~speculation:1.5 ~sink instance realization
          ~arrivals:[| 0.0; 0.0 |]
            ~placement:(Helpers.holders placement) ~order:[| 0; 1 |])
  in
  let _, events =
    Reference_engine.run_stream_traced ~speculation:1.5 instance realization
      ~arrivals:[| 0.0; 0.0 |] ~placement ~order:[| 0; 1 |]
  in
  Alcotest.(check string) "trace is the reference log" (Helpers.log_bytes events)
    bytes;
  checki "both done" 2 so.Engine.outcome.Engine.completed;
  close "loser's run is wasted" 5.0 so.Engine.outcome.Engine.wasted;
  Alcotest.(check (array (float 1e-9)))
    "latencies" [| 8.0; 2.0 |] so.Engine.latencies;
  checkb "backup cancelled at the winner's completion" true
    (List.exists
       (function
         | Engine.Cancelled { time; machine = 1; task = 0 } -> time = 8.0
         | _ -> false)
       events);
  checkb "arrivals are in the event log" true
    (List.length
       (List.filter
          (function Engine.Arrived _ -> true | _ -> false)
          events)
    = 2)

(* Faults compose with arrivals: crash the only pre-arrival holder of a
   late task, and the healer re-replicates its data in time. *)
let stream_composes_with_faults () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 2.0; 2.0 |]
  in
  let realization = Realization.exact instance in
  (* t1's data only on machine 1, which crashes before t1 arrives. *)
  let placement = [| Bitset.full 2; Bitset.singleton 2 1 |] in
  let faults =
    Trace.of_events ~m:2
      [ { Fault.machine = 1; time = 1.0; kind = Fault.Crash } ]
  in
  let so =
    Engine.run_stream ~faults instance realization ~arrivals:[| 0.0; 5.0 |]
      ~placement:(Helpers.holders placement) ~order:[| 0; 1 |]
  in
  checki "late task stranded by the crash" 1
    so.Engine.outcome.Engine.completed;
  checkb "t1 stranded" true (so.Engine.outcome.Engine.stranded = [ 1 ]);
  checki "one latency for one finisher" 1 (Array.length so.Engine.latencies)

(* Streaming instruments exist exactly when streaming: batch snapshots
   must not grow new keys (handles register on creation). *)
let stream_metrics_registered () =
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.make 2 (Bitset.full 1) in
  let order = [| 0; 1 |] in
  let metrics = Metrics.create () in
  let so =
    Engine.run_stream ~metrics instance realization ~arrivals:[| 0.0; 0.5 |]
      ~placement:(Helpers.holders placement) ~order
  in
  (match Metrics.find so.Engine.outcome.Engine.metrics "engine.arrivals" with
  | Some (Metrics.Counter c) -> checki "arrivals counted" 2 c
  | _ -> Alcotest.fail "engine.arrivals missing from a streaming run");
  (match Metrics.find so.Engine.outcome.Engine.metrics "engine.latency" with
  | Some (Metrics.Histogram { count; _ }) ->
      checki "latency observations" 2 count
  | _ -> Alcotest.fail "engine.latency missing from a streaming run");
  let batch =
    Engine.run_faulty ~metrics:(Metrics.create ()) instance realization
      ~faults:(Trace.empty ~m:1) ~placement:(Helpers.holders placement) ~order
  in
  checkb "no arrival instruments in batch snapshots" true
    (Metrics.find batch.Engine.metrics "engine.arrivals" = None
    && Metrics.find batch.Engine.metrics "engine.latency" = None)

let stream_validates_arrivals () =
  let instance =
    Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.make 2 (Bitset.full 1) in
  let order = [| 0; 1 |] in
  let run arrivals () =
    ignore (Engine.run_stream instance realization ~arrivals
        ~placement:(Helpers.holders placement) ~order)
  in
  checkb "wrong length" true (raises_invalid (run [| 0.0 |]));
  checkb "negative" true (raises_invalid (run [| 0.0; -1.0 |]));
  checkb "nan" true (raises_invalid (run [| 0.0; Float.nan |]));
  checkb "infinite" true (raises_invalid (run [| 0.0; infinity |]))

(* An arrival wakes only its task's idle holders. With one holder per
   task and no speculation, a run processes the m initial dispatch
   decisions, then per task at most one arrival, one wake and one
   completion: events <= m + 3n. Waking every idle machine per arrival
   instead costs about one event per idle machine per task. *)
let arrival_wakes_only_holders () =
  let m = 64 and n = 2000 in
  let rng = Rng.create ~seed:19 () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:2.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) ests in
  let realization = Realization.exact instance in
  let placement = Array.init n (fun j -> Bitset.singleton m (j mod m)) in
  let order = Instance.lpt_order instance in
  let arrivals = Array.init n (fun j -> 0.05 *. float_of_int j) in
  let metrics = Metrics.create () in
  let so =
    Engine.run_stream ~metrics instance realization ~arrivals
      ~placement:(Helpers.holders placement) ~order
  in
  checki "every task finishes" n so.Engine.outcome.Engine.completed;
  match Metrics.find so.Engine.outcome.Engine.metrics "engine.events" with
  | Some (Metrics.Counter events) ->
      checkb
        (Printf.sprintf "%d events <= m + 3n = %d" events ((3 * n) + m))
        true
        (events <= (3 * n) + m)
  | _ -> Alcotest.fail "engine.events missing"

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "stream"
    [
      ( "arrival",
        [
          Alcotest.test_case "constructors validate" `Quick arrival_constructors;
          Alcotest.test_case "generation" `Quick arrival_generate;
          Alcotest.test_case "mean rate" `Quick arrival_mean_rate;
          Alcotest.test_case "of_string grammar" `Quick arrival_of_string;
        ] );
      ( "ordering",
        [
          QCheck_alcotest.to_alcotest prop_ordering_under_injection;
          Alcotest.test_case "tie-break pinned with injection" `Quick
            ordering_pinned;
        ] );
      ( "golden",
        [
          QCheck_alcotest.to_alcotest prop_stream_at_zero_is_batch;
          QCheck_alcotest.to_alcotest prop_latencies_match_fates;
        ] );
      ( "service",
        [
          Alcotest.test_case "FCFS single machine" `Quick fcfs_single_machine;
          Alcotest.test_case "idle gap" `Quick arrival_gap_restarts;
          Alcotest.test_case "speculation cancels the loser" `Quick
            speculation_cancels_loser;
          Alcotest.test_case "faults compose" `Quick stream_composes_with_faults;
          Alcotest.test_case "streaming instruments" `Quick
            stream_metrics_registered;
          Alcotest.test_case "arrival validation" `Quick
            stream_validates_arrivals;
          Alcotest.test_case "arrivals wake only holders" `Quick
            arrival_wakes_only_holders;
        ] );
    ]
