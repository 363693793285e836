(* Observability layer: metrics registry semantics, engine instrumentation
   against hand-computed fault scenarios, the metrics-on/off golden
   equivalence, JSON/JSONL writer round-trips, the float rendering, the
   engine's streamed trace records against the sorted event logs, and
   mkdir_p. *)

module Metrics = Usched_obs.Metrics
module Fs = Usched_obs.Fs
module Sink = Usched_obs.Trace
module Json = Usched_report.Json
module Engine = Usched_desim.Engine
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Rng = Usched_prng.Rng
module Quantile = Usched_stats.Quantile

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------- metrics registry ------------------------ *)

let counter_value t name =
  match Metrics.find (Metrics.snapshot t) name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.fail (name ^ ": no such counter")

let gauge_value t name =
  match Metrics.find (Metrics.snapshot t) name with
  | Some (Metrics.Gauge v) -> v
  | _ -> Alcotest.fail (name ^ ": no such gauge")

let metrics_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "c" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter accumulates" 5 (counter_value t "c");
  Metrics.incr (Metrics.counter t "c");
  checki "get-or-create shares state" 6 (counter_value t "c");
  let g = Metrics.gauge t "g" in
  Metrics.set g 2.5;
  Metrics.record_max g 1.0;
  close "max keeps the larger" 2.5 (gauge_value t "g");
  Metrics.record_max g 7.0;
  close "max advances" 7.0 (gauge_value t "g");
  let tm = Metrics.timer t "t" in
  let wait d =
    let t0 = Metrics.now_s () in
    while Metrics.now_s () -. t0 < d do () done
  in
  let before = Metrics.now_s () in
  checki "time returns the thunk's value" 3 (Metrics.time tm (fun () -> wait 0.01; 3));
  Metrics.time tm (fun () -> wait 0.01);
  let elapsed = Metrics.now_s () -. before in
  let h = Metrics.histogram t "h" in
  List.iter (Metrics.observe h) [ 3.0; 1.0; 2.0 ];
  let snap = Metrics.snapshot t in
  checki "four instruments" 4 (List.length snap);
  checkb "sorted by name" true
    (List.map fst snap = List.sort String.compare (List.map fst snap));
  (match Metrics.find snap "t" with
  | Some (Metrics.Timer { total_s; spans }) ->
      checkb "timer adds up both spans" true (total_s >= 0.02);
      checkb "timer total within the wall clock" true (total_s <= elapsed);
      checki "timer spans" 2 spans
  | _ -> Alcotest.fail "timer missing");
  match Metrics.find snap "h" with
  | Some (Metrics.Histogram { count; sum; min; max }) ->
      checki "hist count" 3 count;
      close "hist sum" 6.0 sum;
      close "hist min" 1.0 min;
      close "hist max" 3.0 max
  | _ -> Alcotest.fail "histogram missing"

let metrics_wall_clock () =
  let before = Unix.gettimeofday () in
  let a = Metrics.now_s () in
  let b = Metrics.now_s () in
  let after = Unix.gettimeofday () in
  checkb "reads the wall clock" true (before <= a && b <= after);
  checkb "non-decreasing" true (a <= b)

let metrics_disabled () =
  let t = Metrics.disabled in
  checkb "disabled" true (not (Metrics.is_enabled t));
  let c = Metrics.counter t "c" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.set (Metrics.gauge t "g") 9.0;
  let ran = ref false in
  let x = Metrics.time (Metrics.timer t "t") (fun () -> ran := true; 42) in
  checki "timer still runs the thunk" 42 x;
  checkb "thunk ran" true !ran;
  Metrics.observe (Metrics.histogram t "h") 1.0;
  checkb "empty snapshot" true (Metrics.snapshot t = [])

let metrics_kind_mismatch () =
  let t = Metrics.create () in
  ignore (Metrics.counter t "x");
  checkb "re-registering as gauge raises" true
    (try
       ignore (Metrics.gauge t "x");
       false
     with Invalid_argument _ -> true)

(* --------------------- engine instrumentation ---------------------- *)

let submission_order n = Array.init n (fun j -> j)

let get_counter snap name =
  match Metrics.find snap name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.failf "counter %s missing" name

let get_gauge snap name =
  match Metrics.find snap name with
  | Some (Metrics.Gauge g) -> g
  | _ -> Alcotest.failf "gauge %s missing" name

(* The crash/re-dispatch scenario of test_faults, now checked through the
   metrics: two tasks of 4 on two machines, full replication, machine 0
   crashes at 2. Three copies start (one is the re-dispatch of the killed
   task), one kill, two units wasted, makespan 8. *)
let engine_crash_metrics () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0; 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.init 2 (fun _ -> Bitset.full 2) in
  let metrics = Metrics.create () in
  let outcome =
    Engine.run_faulty ~metrics instance realization
      ~faults:
        (Trace.of_events ~m:2
           [ { Fault.machine = 0; time = 2.0; kind = Fault.Crash } ])
      ~placement:(Helpers.holders placement) ~order:(submission_order 2)
  in
  let snap = outcome.Engine.metrics in
  checki "dispatches" 3 (get_counter snap "engine.dispatches");
  checki "redispatches" 1 (get_counter snap "engine.redispatches");
  checki "kills" 1 (get_counter snap "engine.kills");
  checki "crashes" 1 (get_counter snap "engine.crashes");
  checkb "no speculation counters" true
    (Metrics.find snap "engine.spec_starts" = None);
  checki "completed" 2 (get_counter snap "engine.completed");
  checki "stranded" 0 (get_counter snap "engine.stranded");
  close "wasted gauge mirrors outcome" outcome.Engine.wasted
    (get_gauge snap "engine.wasted_work");
  close "wasted is the two killed units" 2.0
    (get_gauge snap "engine.wasted_work");
  close "makespan gauge" 8.0 (get_gauge snap "engine.makespan");
  checkb "events were counted" true (get_counter snap "engine.events" > 0);
  (* Idle: m0 processed 2 units before dying (idle 6 of makespan 8), m1
     was busy 0..8 (idle 0). *)
  match Metrics.find snap "engine.machine_idle" with
  | Some (Metrics.Histogram { count; sum; min; max }) ->
      checki "one observation per machine" 2 count;
      close "total idle" 6.0 sum;
      close "busiest machine idle" 0.0 min;
      close "crashed machine idle tail" 6.0 max
  | _ -> Alcotest.fail "idle histogram missing"

(* Speculation metrics: one task (est 2, actual 8), machine 0 a
   congenital straggler; the beta=2 backup starts at 4 on machine 1 and
   wins at 12; the primary is cancelled (12 units wasted). *)
let engine_speculation_metrics () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 4.0) [| 2.0 |]
  in
  let realization = Realization.of_actuals instance [| 8.0 |] in
  let placement = [| Bitset.full 2 |] in
  let faults =
    Trace.of_events ~m:2
      [ { Fault.machine = 0; time = 0.0; kind = Fault.Slowdown 0.25 } ]
  in
  let metrics = Metrics.create () in
  let outcome =
    Engine.run_faulty ~speculation:2.0 ~metrics instance realization ~faults
      ~placement:(Helpers.holders placement) ~order:(submission_order 1)
  in
  let snap = outcome.Engine.metrics in
  checki "primary + backup" 2 (get_counter snap "engine.dispatches");
  checki "one speculative start" 1 (get_counter snap "engine.spec_starts");
  checki "loser cancelled" 1 (get_counter snap "engine.spec_cancelled");
  checki "nothing redispatched" 0 (get_counter snap "engine.redispatches");
  checki "slowdown seen" 1 (get_counter snap "engine.slowdowns");
  checki "no kills" 0 (get_counter snap "engine.kills");
  close "loser's wall-clock wasted" 12.0 (get_gauge snap "engine.wasted_work");
  close "makespan is the winner's" 12.0 (get_gauge snap "engine.makespan")

let engine_plain_run_metrics () =
  (* Two machines, three unit tasks fully replicated, submission order:
     m0 runs t0 then t2 (busy 2), m1 runs t1 (busy 1, idle 1). *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 1.0; 1.0 |]
  in
  let realization = Realization.exact instance in
  let placement = Array.init 3 (fun _ -> Bitset.full 2) in
  let metrics = Metrics.create () in
  let schedule =
    Engine.run ~metrics instance realization ~placement:(Helpers.holders placement)
      ~order:(submission_order 3)
  in
  close "makespan" 2.0 (Schedule.makespan schedule);
  let snap = Metrics.snapshot metrics in
  checki "three dispatches" 3 (get_counter snap "engine.dispatches");
  close "makespan gauge" 2.0 (get_gauge snap "engine.makespan");
  match Metrics.find snap "engine.machine_idle" with
  | Some (Metrics.Histogram { count; sum; _ }) ->
      checki "per machine" 2 count;
      close "one idle unit" 1.0 sum
  | _ -> Alcotest.fail "idle histogram missing"

(* Golden: metrics on vs off never changes a single bit of the outputs. *)
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

let prop_metrics_golden =
  QCheck.Test.make ~name:"outputs are bit-for-bit equal with metrics on/off"
    ~count:300 scenario (fun s ->
      let instance, realization, placement, order, faults = build s in
      let plain =
        Engine.run_faulty ~speculation:1.5 instance realization ~faults
          ~placement:(Helpers.holders placement) ~order
      in
      let observed =
        Engine.run_faulty ~speculation:1.5 ~metrics:(Metrics.create ())
          instance realization ~faults ~placement:(Helpers.holders placement) ~order
      in
      plain.Engine.makespan = observed.Engine.makespan
      && plain.Engine.wasted = observed.Engine.wasted
      && plain.Engine.stranded = observed.Engine.stranded
      && plain.Engine.completed = observed.Engine.completed
      && Array.for_all2
           (fun x y ->
             match (x, y) with
             | Engine.Stranded, Engine.Stranded -> true
             | Engine.Finished e, Engine.Finished f -> entries_equal e f
             | _ -> false)
           plain.Engine.fates observed.Engine.fates)

let prop_plain_run_metrics_golden =
  QCheck.Test.make ~name:"run is bit-for-bit equal with metrics on/off"
    ~count:300 scenario (fun s ->
      let instance, realization, placement, order, _ = build s in
      let a = Engine.run instance realization
          ~placement:(Helpers.holders placement) ~order in
      let b =
        Engine.run ~metrics:(Metrics.create ()) instance realization
          ~placement:(Helpers.holders placement)
          ~order
      in
      Schedule.n a = Schedule.n b
      && List.for_all
           (fun j -> entries_equal (Schedule.entry a j) (Schedule.entry b j))
           (List.init (Schedule.n a) Fun.id))

(* --------------------------- JSON writer --------------------------- *)

let json_serialization () =
  checks "escaping" {|{"s":"a\"b\\c\nd\te\u0001"}|}
    (Json.to_string (Json.Obj [ ("s", Json.String "a\"b\\c\nd\te\001") ]));
  checks "nested"
    {|{"l":[1,true,null,"x"],"o":{"k":2.5}}|}
    (Json.to_string
       (Json.Obj
          [
            ("l", Json.List [ Json.Int 1; Json.Bool true; Json.Null; Json.String "x" ]);
            ("o", Json.Obj [ ("k", Json.Float 2.5) ]);
          ]));
  checks "non-finite floats become null" {|[null,null,null]|}
    (Json.to_string
       (Json.List [ Json.float nan; Json.float infinity; Json.float neg_infinity ]));
  checks "integral float stays a number" "1" (Json.to_string (Json.Float 1.0));
  checkb "float repr round-trips" true
    (let f = 0.1 +. 0.2 in
     float_of_string (Json.to_string (Json.Float f)) = f)

let json_round_trip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int (-42));
        ("b", Json.Float 3.141592653589793);
        ("c", Json.String "quote\" slash\\ nl\n tab\t unicode \xc3\xa9");
        ("d", Json.List [ Json.Bool false; Json.Null; Json.Obj [] ]);
        ("e", Json.Obj [ ("nested", Json.List [ Json.Int 0 ]) ]);
      ]
  in
  checkb "parse (print v) = v" true (Json.of_string_exn (Json.to_string v) = v);
  checkb "unicode escape" true
    (Json.of_string_exn {|"Aé"|} = Json.String "A\xc3\xa9");
  checkb "surrogate pair" true
    (Json.of_string_exn {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  checkb "exponent number" true (Json.of_string_exn "1e3" = Json.Float 1000.0);
  checkb "integer stays int" true (Json.of_string_exn "17" = Json.Int 17);
  checkb "member lookup" true
    (Json.member "a" (Json.of_string_exn {|{"a":1}|}) = Some (Json.Int 1));
  List.iter
    (fun bad ->
      checkb (Printf.sprintf "rejects %S" bad) true
        (match Json.of_string bad with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "usched_obs_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fs.mkdir_p dir;
  dir

let jsonl_sink () =
  let dir = temp_dir () in
  (* Parent directories spring into existence. *)
  let path = Filename.concat dir "a/b/trace.jsonl" in
  let records =
    [
      Json.Obj [ ("type", Json.String "meta"); ("seed", Json.Int 1) ];
      Json.Obj [ ("type", Json.String "event"); ("t", Json.Float 0.5) ];
      Json.Obj [ ("type", Json.String "outcome") ];
    ]
  in
  Sink.with_file ~path (fun sink -> List.iter (Sink.emit sink) records);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  checki "one line per record" (List.length records) (List.length lines);
  checkb "each line parses back to its record" true
    (List.for_all2 (fun line r -> Json.of_string_exn line = r) lines records)

(* A record written piece by piece renders as the same object through
   [emit] would; ints print as [string_of_int] does. *)
let record_writers () =
  let ints = [ 0; 7; 10; 1234567890; max_int; -1; -42; min_int ] in
  let floats = [ 0.0; -0.0; 0.1; 1e15; 1e17; 1. /. 3.; 5e-324; infinity; nan ] in
  let sink = Sink.memory () in
  Sink.literal sink {|{"ints":[|};
  List.iteri
    (fun k i ->
      if k > 0 then Sink.literal sink ",";
      Sink.int sink i)
    ints;
  Sink.literal sink {|],"floats":[|};
  let column = Array.of_list floats in
  Array.iteri
    (fun k _ ->
      if k > 0 then Sink.literal sink ",";
      Sink.float sink column k)
    column;
  Sink.literal sink "]}";
  Sink.end_record sink;
  Sink.emit sink (Json.Obj [ ("after", Json.Int 1) ]);
  let expected =
    Json.to_string
      (Json.Obj
         [
           ("ints", Json.List (List.map (fun i -> Json.Int i) ints));
           ("floats", Json.List (List.map Json.float floats));
         ])
    ^ "\n{\"after\":1}\n"
  in
  checks "same bytes as the tree" expected (Sink.contents sink);
  Sink.close sink;
  checkb "closed sink refuses records" true
    (try
       Sink.end_record sink;
       false
     with Invalid_argument _ -> true)

let mkdir_p_cases () =
  let dir = temp_dir () in
  let nested = Filename.concat dir "x/y/z" in
  Fs.mkdir_p nested;
  checkb "nested created" true (Sys.is_directory nested);
  Fs.mkdir_p nested;
  checkb "idempotent" true (Sys.is_directory nested);
  let file = Filename.concat dir "plain" in
  let oc = open_out file in
  close_out oc;
  checkb "file in the way fails" true
    (try
       Fs.mkdir_p (Filename.concat file "sub");
       false
     with Failure _ | Unix.Unix_error _ -> true)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let jsonl_output_line () =
  let dir = temp_dir () in
  let path = Filename.concat dir "lines.jsonl" in
  let records =
    [ Json.Obj [ ("k", Json.String "a\nb") ]; Json.List [ Json.Int 1; Json.Null ] ]
  in
  let oc = open_out_bin path in
  List.iter (Json.output_line oc) records;
  close_out oc;
  checks "compact renderings, one per line"
    (String.concat "" (List.map (fun r -> Json.to_string r ^ "\n") records))
    (read_file path)

let atomic_write_cases () =
  let dir = temp_dir () in
  let path = Filename.concat dir "sub/report.json" in
  Fs.write_atomic ~path "first";
  checkb "content written" true (read_file path = "first");
  checkb "no temp file left" false (Sys.file_exists (Fs.temp_path path));
  Fs.write_atomic ~path "second";
  checkb "overwrite replaces" true (read_file path = "second")

(* A rename onto a non-empty directory fails after the temp file is
   complete: the target and its contents survive, and the temp file is
   cleaned up. *)
let atomic_write_failure_keeps_old_content () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out" in
  Fs.write_atomic ~path:(Filename.concat path "inner.csv") "precious";
  checkb "failed publish raises" true
    (try
       Fs.write_atomic ~path "torn";
       false
     with Sys_error _ -> true);
  checkb "old target still a directory" true (Sys.is_directory path);
  checkb "old content survives a failed rewrite" true
    (read_file (Filename.concat path "inner.csv") = "precious");
  checkb "failed writer leaves no temp file" false
    (Sys.file_exists (Fs.temp_path path))

exception Boom

let sink_discard_on_exception () =
  let dir = temp_dir () in
  let path = Filename.concat dir "trace.jsonl" in
  Sink.with_file ~path (fun s -> Sink.emit s (Json.Obj []));
  checkb "baseline trace published" true (Sys.file_exists path);
  let before = read_file path in
  checkb "exception propagates" true
    (try
       (Sink.with_file ~path (fun s ->
            Sink.emit s (Json.Obj [ ("half", Json.Int 1) ]);
            raise Boom)
         : unit);
       false
     with Boom -> true);
  checkb "old trace untouched" true (read_file path = before);
  checkb "no temp file left" false (Sys.file_exists (Fs.temp_path path));
  (* Publication only happens at close: mid-stream the target is the old
     file (or absent), never a prefix of the new one. *)
  let fresh = Filename.concat dir "fresh.jsonl" in
  let sink = Sink.create ~path:fresh in
  Sink.emit sink (Json.Obj []);
  checkb "target absent until close" false (Sys.file_exists fresh);
  Sink.close sink;
  checkb "published at close" true (Sys.file_exists fresh);
  Sink.close sink (* idempotent *)

(* --------------------------- quantiles ----------------------------- *)

let quantile_rejects_nan () =
  checkb "NaN input raises" true
    (try
       ignore (Quantile.median [| 1.0; nan; 2.0 |]);
       false
     with Invalid_argument _ -> true)

let prop_quantiles_sound =
  QCheck.Test.make
    ~name:"quantiles are NaN-free, in-range, and order-preserving" ~count:500
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 40) (float_range (-1000.0) 1000.0))
        (array_of_size Gen.(int_range 1 8) (float_range 0.0 1.0)))
    (fun (sample, qs) ->
      Array.sort Float.compare qs;
      let res = Quantile.quantiles sample ~qs in
      let lo = Array.fold_left Float.min infinity sample in
      let hi = Array.fold_left Float.max neg_infinity sample in
      let in_range = Array.for_all (fun v -> v >= lo && v <= hi) res in
      let nan_free = Array.for_all (fun v -> not (Float.is_nan v)) res in
      let monotone = ref true in
      for i = 0 to Array.length res - 2 do
        if res.(i) > res.(i + 1) then monotone := false
      done;
      in_range && nan_free && !monotone)

(* ----------------------- streamed trace records --------------------- *)

(* The tree rendering of an event as traces held it before the engine
   streamed its records, frozen here as the oracle for the sink's
   bytes. *)
let frozen_event_json e =
  let base kind time fields =
    Json.Obj
      (("type", Json.String "event")
      :: ("kind", Json.String kind)
      :: ("t", Json.float time)
      :: fields)
  in
  let mt kind time machine task =
    base kind time [ ("machine", Json.Int machine); ("task", Json.Int task) ]
  in
  let transfer kind time task src dst =
    base kind time
      [ ("task", Json.Int task); ("src", Json.Int src); ("dst", Json.Int dst) ]
  in
  match e with
  | Engine.Arrived { time; task } -> base "arrived" time [ ("task", Json.Int task) ]
  | Engine.Started { time; machine; task } -> mt "started" time machine task
  | Engine.Completed { time; machine; task } -> mt "completed" time machine task
  | Engine.Killed { time; machine; task } -> mt "killed" time machine task
  | Engine.Cancelled { time; machine; task } -> mt "cancelled" time machine task
  | Engine.Machine_crashed { time; machine } ->
      base "machine_crashed" time [ ("machine", Json.Int machine) ]
  | Engine.Machine_down { time; machine; until } ->
      base "machine_down" time
        [ ("machine", Json.Int machine); ("until", Json.float until) ]
  | Engine.Machine_up { time; machine } ->
      base "machine_up" time [ ("machine", Json.Int machine) ]
  | Engine.Machine_slowed { time; machine; factor } ->
      base "machine_slowed" time
        [ ("machine", Json.Int machine); ("factor", Json.float factor) ]
  | Engine.Failure_detected { time; machine } ->
      base "failure_detected" time [ ("machine", Json.Int machine) ]
  | Engine.Rereplication_started { time; task; src; dst } ->
      transfer "rereplication_started" time task src dst
  | Engine.Rereplication_completed { time; task; src; dst } ->
      transfer "rereplication_completed" time task src dst
  | Engine.Rereplication_aborted { time; task; src; dst } ->
      transfer "rereplication_aborted" time task src dst
  | Engine.Checkpoint_resumed { time; machine; task; progress } ->
      base "checkpoint_resumed" time
        [
          ("machine", Json.Int machine);
          ("task", Json.Int task);
          ("progress", Json.float progress);
        ]

let read_and_remove path =
  let text = read_file path in
  Sys.remove path;
  text

(* [events] printed one record a line through [Json.output_line], in a
   file under [dir]. *)
let printed dir to_json events =
  let path = Filename.concat dir "printed.jsonl" in
  let oc = open_out_bin path in
  List.iter (fun e -> Json.output_line oc (to_json e)) events;
  close_out oc;
  read_and_remove path

(* What a run writes into a file sink under [dir]. *)
let streamed dir run =
  let path = Filename.concat dir "streamed.jsonl" in
  Sink.with_file ~path (fun sink -> ignore (Sys.opaque_identity (run sink)));
  read_and_remove path

(* Odd seeds draw integer estimates replayed exactly, so many records
   share a time and only the emission order separates them; even seeds
   draw uniform factors. Outages, slowdowns and crashes strike machines
   at random over about twice the makespan. *)
let trace_scenario ~n ~m ~seed =
  let rng = Rng.create ~seed () in
  let ties = seed mod 2 = 1 in
  let ests =
    Array.init n (fun _ ->
        if ties then float_of_int (1 + Rng.int rng 4)
        else Rng.float_range rng ~lo:0.5 ~hi:10.0)
  in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  let realization =
    if ties then Realization.exact instance
    else Realization.uniform_factor instance rng
  in
  let placement () =
    Array.init n (fun j -> Bitset.of_list m [ j mod m; (j + 1) mod m ])
  in
  let horizon = 2.0 *. Realization.total realization /. float_of_int m in
  let faults =
    Helpers.merge_traces
      (Trace.random_crashes rng ~m ~p:0.3 ~horizon)
      (Helpers.merge_traces
         (Trace.random_outages rng ~m ~p:0.5 ~horizon ~duration:(0.5, 3.0))
         (Trace.random_slowdowns rng ~m ~p:0.5 ~horizon ~factor:(0.3, 0.9)))
  in
  let arrivals = Array.init n (fun j -> 0.4 *. float_of_int (j / 2)) in
  let speeds =
    if seed mod 3 = 0 then Some (Array.init m (fun i -> 1.0 +. (0.5 *. float_of_int (i mod 3))))
    else None
  in
  (instance, realization, placement, Instance.lpt_order instance, faults, arrivals, speeds)

let kinds_of text =
  List.filter_map
    (fun line ->
      if line = "" then None
      else
        match Json.member "kind" (Json.of_string_exn line) with
        | Some (Json.String k) -> Some k
        | _ -> None)
    (String.split_on_char '\n' text)

(* Healthy, faulty and stream runs write into a file sink exactly the
   bytes of their sorted event logs printed record by record: the frozen
   reference engine's log through the frozen rendering, and the live
   engine's, where it has a log entry point, through [event_json]. A
   healthy run's reference is the frozen faulty loop on the empty trace,
   whose order it shares when records tie. Together the scenarios
   produce every event kind; one run per entry point is large enough to
   span several of the sink's 64 KiB chunks. *)
let streamed_records_match_sorted_logs () =
  let recovery =
    Recovery.make ~detection_latency:0.5
      ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:0.3
      ~checkpoint_interval:1.0 ()
  in
  let dir = temp_dir () in
  let printed to_json events = printed dir to_json events
  and streamed run = streamed dir run in
  let seen = Hashtbl.create 16 in
  let check label bytes ~reference ?live () =
    checks (label ^ ": frozen reference") (printed frozen_event_json reference) bytes;
    Option.iter
      (fun live -> checks (label ^ ": event_json") (printed Engine.event_json live) bytes)
      live;
    List.iter (fun k -> Hashtbl.replace seen k ()) (kinds_of bytes)
  in
  let sizes = List.init 24 (fun seed -> (12 + seed, 3 + (seed mod 4), seed)) in
  List.iter
    (fun (n, m, seed) ->
      let instance, realization, placement, order, faults, arrivals, speeds =
        trace_scenario ~n ~m ~seed
      in
      let speculation = if seed mod 4 < 2 then Some 1.2 else None in
      let recovery = if seed mod 5 = 4 then Recovery.none else recovery in
      let label loop = Printf.sprintf "%s n=%d m=%d seed=%d" loop n m seed in
      check (label "healthy")
        (streamed (fun sink ->
             Engine.run ?speeds ~sink instance realization
               ~placement:(Helpers.holders (placement ())) ~order))
        ~reference:
          (snd
             (Reference_engine.run_faulty_traced ?speeds instance realization
                ~faults:(Trace.empty ~m) ~placement:(placement ()) ~order))
        ~live:
          (snd
             (Engine.run_traced ?speeds instance realization
                ~placement:(Helpers.holders (placement ())) ~order))
        ();
      check (label "faulty")
        (streamed (fun sink ->
             Engine.run_faulty ?speeds ?speculation ~recovery ~sink instance
               realization ~faults ~placement:(Helpers.holders (placement ())) ~order))
        ~reference:
          (snd
             (Reference_engine.run_faulty_traced ?speeds ?speculation
                ~recovery instance realization ~faults
                ~placement:(placement ()) ~order))
        ~live:
          (snd
             (Engine.run_faulty_traced ?speeds ?speculation ~recovery instance
                realization ~faults ~placement:(Helpers.holders (placement ())) ~order))
        ();
      check (label "stream")
        (streamed (fun sink ->
             Engine.run_stream ?speeds ?speculation ~recovery ~faults ~sink
               instance realization ~arrivals
                 ~placement:(Helpers.holders (placement ())) ~order))
        ~reference:
          (snd
             (Reference_engine.run_stream_traced ?speeds ?speculation
                ~recovery ~faults instance realization ~arrivals
                ~placement:(placement ()) ~order))
        ())
    (sizes @ [ (3000, 40, 101); (3000, 40, 102) ]);
  let missing =
    List.filter
      (fun k -> not (Hashtbl.mem seen k))
      [
        "arrived"; "started"; "completed"; "killed"; "cancelled";
        "machine_crashed"; "machine_down"; "machine_up"; "machine_slowed";
        "failure_detected"; "rereplication_started";
        "rereplication_completed"; "rereplication_aborted";
        "checkpoint_resumed";
      ]
  in
  Alcotest.(check (list string)) "every event kind streamed" [] missing;
  (* No fault trace holds an endless outage, but an event may: its
     [until] prints as null. *)
  let down = Engine.Machine_down { time = 1.5; machine = 2; until = infinity } in
  checks "endless outage" (printed frozen_event_json [ down ])
    (printed Engine.event_json [ down ]);
  checks "until is null"
    {|{"type":"event","kind":"machine_down","t":1.5,"machine":2,"until":null}|}
    (Json.to_string (Engine.event_json down));
  Sys.rmdir dir

(* The float rendering takes the exact 17 digits and only tries the
   twelve-digit candidate when digits 13-17 sit within 11 of a multiple
   of 10^5; it must agree with the plain printf-and-strtod rule
   everywhere. *)
let plain_float_rule f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let float_cases =
  let open QCheck.Gen in
  let bits = map Int64.float_of_bits int64 in
  let subnormal =
    map (fun k -> Int64.float_of_bits (Int64.of_int (1 + k))) (int_bound ((1 lsl 52) - 2))
  in
  let integer = map Int64.to_float (map (fun k -> Int64.of_int k) (int_bound (1 lsl 53))) in
  let power_of_ten =
    let* e = int_range (-323) 308 in
    let* step = int_range (-2) 2 in
    let p = float_of_string (Printf.sprintf "1e%d" e) in
    return
      (if step < 0 then Float.pred p else if step > 0 then Float.succ p else p)
  in
  (* A twelve-digit decimal nudged a few ulps: its digits 13-17 read
     about 00000 or 99999. *)
  let near_twelve =
    let* d = int_range 100_000_000_000 999_999_999_999 in
    let* e = int_range (-300) 290 in
    let* k = int_range (-40) 40 in
    let f = ref (float_of_string (Printf.sprintf "%de%d" d e)) in
    for _ = 1 to abs k do
      f := if k < 0 then Float.pred !f else Float.succ !f
    done;
    return !f
  in
  (* The same where [%.12g] and [%.17g] print without an exponent, and
     at the twelve-digit rounding that moves the exponent. *)
  let near_twelve_fixed =
    let* d = int_range 100_000_000_000 999_999_999_999 in
    let* e = int_range (-16) 6 in
    let* k = int_range (-40) 40 in
    let* top = bool in
    let d = if top then 999_999_999_999 else d in
    let f = ref (float_of_string (Printf.sprintf "%de%d" d e)) in
    for _ = 1 to abs k do
      f := if k < 0 then Float.pred !f else Float.succ !f
    done;
    return !f
  in
  let signed g = map2 (fun neg f -> if neg then -.f else f) bool g in
  signed
    (frequency
       [
         (4, bits); (2, subnormal); (2, integer); (2, power_of_ten);
         (4, near_twelve); (4, near_twelve_fixed);
         (1, oneofl [ 0.0; Float.min_float; Float.max_float ]);
       ])

let prop_float_fast_path =
  QCheck.Test.make ~name:"float rendering equals the %.12g-then-%.17g rule"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") float_cases)
    (fun f ->
      if not (Float.is_finite f) then Json.to_string (Json.Float f) = "null"
      else Json.to_string (Json.Float f) = plain_float_rule f)

let () =
  Random.self_init ();
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick metrics_basics;
          Alcotest.test_case "disabled registry" `Quick metrics_disabled;
          Alcotest.test_case "kind mismatch" `Quick metrics_kind_mismatch;
          Alcotest.test_case "wall clock" `Quick metrics_wall_clock;
        ] );
      ( "engine instrumentation",
        [
          Alcotest.test_case "crash / re-dispatch counts" `Quick
            engine_crash_metrics;
          Alcotest.test_case "speculation counts" `Quick
            engine_speculation_metrics;
          Alcotest.test_case "plain run" `Quick engine_plain_run_metrics;
          qtest prop_metrics_golden;
          qtest prop_plain_run_metrics_golden;
        ] );
      ( "json",
        [
          Alcotest.test_case "serialization" `Quick json_serialization;
          Alcotest.test_case "round trip" `Quick json_round_trip;
          Alcotest.test_case "jsonl sink" `Quick jsonl_sink;
          Alcotest.test_case "record writers" `Quick record_writers;
          Alcotest.test_case "output_line" `Quick jsonl_output_line;
          qtest prop_float_fast_path;
        ] );
      ( "trace records",
        [
          Alcotest.test_case "streamed records match sorted logs" `Quick
            streamed_records_match_sorted_logs;
        ] );
      ( "fs",
        [
          Alcotest.test_case "mkdir_p" `Quick mkdir_p_cases;
          Alcotest.test_case "atomic writes" `Quick atomic_write_cases;
          Alcotest.test_case "failed write keeps old content" `Quick
            atomic_write_failure_keeps_old_content;
          Alcotest.test_case "sink discards on exception" `Quick
            sink_discard_on_exception;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "rejects NaN" `Quick quantile_rejects_nan;
          qtest prop_quantiles_sound;
        ] );
    ]
