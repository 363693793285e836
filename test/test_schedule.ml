(* Unit tests for schedules, validation and Gantt rendering. *)

module Schedule = Usched_desim.Schedule
module Gantt = Usched_desim.Gantt
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let entry machine start finish = { Schedule.machine; start; finish }

let basic_measures () =
  let s =
    Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0; entry 0 2.0 5.0 |]
  in
  Alcotest.(check int) "n" 3 (Schedule.n s);
  Alcotest.(check int) "m" 2 (Schedule.m s);
  close "makespan" 5.0 (Schedule.makespan s);
  Alcotest.(check (list int)) "machine 0 tasks in start order" [ 0; 2 ]
    (Helpers.machine_tasks s 0)

let make_validation () =
  Alcotest.check_raises "machine out of range"
    (Invalid_argument "Schedule.make: task 0 on machine 5") (fun () ->
      ignore (Schedule.make ~m:2 [| entry 5 0.0 1.0 |]));
  Alcotest.check_raises "finish before start"
    (Invalid_argument "Schedule.make: task 0 has bad times") (fun () ->
      ignore (Schedule.make ~m:2 [| entry 0 2.0 1.0 |]))

let of_soa_matches_make () =
  let entries = [| entry 1 0.0 2.0; entry 0 0.5 3.0; entry 1 2.0 4.5 |] in
  let made = Schedule.make ~m:2 entries in
  let soa =
    Schedule.of_soa ~m:2 ~machines:[| 1; 0; 1 |] ~starts:[| 0.0; 0.5; 2.0 |]
      ~finishes:[| 2.0; 3.0; 4.5 |]
  in
  Alcotest.(check int) "n" (Schedule.n made) (Schedule.n soa);
  Array.iteri
    (fun j e -> checkb (Printf.sprintf "entry %d" j) true (Schedule.entry soa j = e))
    entries;
  close "makespan" (Schedule.makespan made) (Schedule.makespan soa);
  Alcotest.(check int) "empty lanes" 0
    (Schedule.n (Schedule.of_soa ~m:1 ~machines:[||] ~starts:[||] ~finishes:[||]))

let of_soa_validation () =
  Alcotest.check_raises "lane length mismatch"
    (Invalid_argument "Schedule.of_soa: length mismatch") (fun () ->
      ignore
        (Schedule.of_soa ~m:2 ~machines:[| 0; 1 |] ~starts:[| 0.0 |]
           ~finishes:[| 1.0; 1.0 |]));
  Alcotest.check_raises "machine out of range"
    (Invalid_argument "Schedule.make: task 1 on machine 2") (fun () ->
      ignore
        (Schedule.of_soa ~m:2 ~machines:[| 0; 2 |] ~starts:[| 0.0; 0.0 |]
           ~finishes:[| 1.0; 1.0 |]));
  Alcotest.check_raises "negative start"
    (Invalid_argument "Schedule.make: task 0 has bad times") (fun () ->
      ignore
        (Schedule.of_soa ~m:2 ~machines:[| 0 |] ~starts:[| -1.0 |] ~finishes:[| 1.0 |]));
  Alcotest.check_raises "finish before start"
    (Invalid_argument "Schedule.make: task 0 has bad times") (fun () ->
      ignore
        (Schedule.of_soa ~m:2 ~machines:[| 1 |] ~starts:[| 2.0 |] ~finishes:[| 1.0 |]))

let of_assignment_packs_back_to_back () =
  let s =
    Schedule.of_assignment ~m:2 ~durations:[| 2.0; 3.0; 4.0 |] [| 0; 0; 1 |]
  in
  let e1 = Schedule.entry s 1 in
  close "second task starts when first ends" 2.0 e1.Schedule.start;
  close "makespan" 5.0 (Schedule.makespan s)

let fixture () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 2.0; 3.0 |]
  in
  let realization = Realization.exact instance in
  (instance, realization)

let validate_accepts_good_schedule () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0 |] in
  Alcotest.(check int) "no violations" 0
    (List.length (Schedule.validate instance realization s))

let validate_catches_wrong_duration () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 9.0; entry 1 0.0 3.0 |] in
  match Schedule.validate instance realization s with
  | [ Schedule.Wrong_duration { task = 0; _ } ] -> ()
  | other ->
      Alcotest.failf "expected one duration violation, got %d" (List.length other)

let validate_catches_overlap () =
  let instance, realization = fixture () in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 1.0 4.0 |] in
  checkb "overlap detected" true
    (List.exists
       (function Schedule.Overlap _ -> true | _ -> false)
       (Schedule.validate instance realization s))

let validate_catches_misplacement () =
  let instance, realization = fixture () in
  let placement = [| Bitset.singleton 2 1; Bitset.full 2 |] in
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 1 0.0 3.0 |] in
  checkb "locality violation detected" true
    (List.exists
       (function Schedule.Not_allowed { task = 0; machine = 0 } -> true | _ -> false)
       (Schedule.validate ~placement:(Helpers.holders placement) instance realization s))

let validate_allows_idle_gaps () =
  let instance, realization = fixture () in
  (* Machine 0 idles between its two... here task 1 on machine 0 with a gap. *)
  let s = Schedule.make ~m:2 [| entry 0 0.0 2.0; entry 0 10.0 13.0 |] in
  Alcotest.(check int) "gaps are fine" 0
    (List.length (Schedule.validate instance realization s))

let gantt_contains_all_machines () =
  let s = Schedule.make ~m:3 [| entry 0 0.0 2.0; entry 2 0.0 1.0 |] in
  let text = Gantt.render ~width:20 s in
  checkb "mentions m0" true
    (String.length text > 0
    && List.for_all
         (fun needle ->
           let rec contains i =
             i + String.length needle <= String.length text
             && (String.sub text i (String.length needle) = needle
                || contains (i + 1))
           in
           contains 0)
         [ "m0"; "m1"; "m2"; "makespan" ])

let gantt_zero_duration () =
  let s = Schedule.make ~m:1 [||] in
  checkb "renders something" true (String.length (Gantt.render s) > 0)

let gantt_two_requires_same_m () =
  let a = Schedule.make ~m:1 [| entry 0 0.0 1.0 |] in
  let b = Schedule.make ~m:2 [| entry 0 0.0 1.0 |] in
  Alcotest.check_raises "machine count mismatch"
    (Invalid_argument "Gantt.render_two: machine counts differ") (fun () ->
      ignore (Gantt.render_two ~left_title:"a" ~right_title:"b" a b))

(* Oracles: validation's overlap check and the Gantt tracks defined by
   one [machine_tasks] scan per machine. *)
let overlaps_oracle t =
  let tolerance = 1e-9 *. Float.max 1.0 (Schedule.makespan t) in
  let acc = ref [] in
  for i = 0 to Schedule.m t - 1 do
    let rec check = function
      | a :: (b :: _ as rest) ->
          let ea = Schedule.entry t a and eb = Schedule.entry t b in
          if ea.Schedule.finish > eb.Schedule.start +. tolerance then
            acc := Schedule.Overlap { machine = i; task_a = a; task_b = b } :: !acc;
          check rest
      | _ -> ()
    in
    check (Helpers.machine_tasks t i)
  done;
  List.rev !acc

let track_oracle ~width ~scale schedule i =
  let row = Bytes.make width '.' in
  List.iter
    (fun task ->
      let e = Schedule.entry schedule task in
      let first = int_of_float (e.Schedule.start *. scale) in
      let last = int_of_float (e.Schedule.finish *. scale) - 1 in
      let first = Stdlib.max 0 (Stdlib.min (width - 1) first) in
      let last = Stdlib.max first (Stdlib.min (width - 1) last) in
      for c = first to last do
        Bytes.set row c (Char.chr (Char.code '0' + (task mod 10)))
      done)
    (Helpers.machine_tasks schedule i);
  Bytes.to_string row

let render_oracle ~width schedule =
  let horizon = Schedule.makespan schedule in
  let scale = if horizon > 0.0 then float_of_int width /. horizon else 0.0 in
  Printf.sprintf "time 0 .. %g (makespan), %d machines\n" horizon (Schedule.m schedule)
  ^ String.concat ""
      (List.init (Schedule.m schedule) (fun i ->
           Printf.sprintf "m%-3d |%s|\n" i (track_oracle ~width ~scale schedule i)))

let render_two_oracle ~width left right =
  let horizon = Float.max (Schedule.makespan left) (Schedule.makespan right) in
  let scale = if horizon > 0.0 then float_of_int width /. horizon else 0.0 in
  Printf.sprintf "%-*s   %s\n" (width + 7) "a" "b"
  ^ Printf.sprintf "shared time scale 0 .. %g\n" horizon
  ^ String.concat ""
      (List.init (Schedule.m left) (fun i ->
           Printf.sprintf "m%-3d |%s|   |%s|\n" i
             (track_oracle ~width ~scale left i)
             (track_oracle ~width ~scale right i)))

(* Random schedules on a coarse start grid: many start ties, some
   overlaps, tasks of one machine rarely in id order. *)
let random_schedule (m, n, seed) =
  let rng = Random.State.make [| seed |] in
  Schedule.make ~m
    (Array.init n (fun _ ->
         let start = float_of_int (Random.State.int rng 8) in
         {
           Schedule.machine = Random.State.int rng m;
           start;
           finish = start +. Random.State.float rng 2.0;
         }))

let schedule_arb = QCheck.(triple (int_range 1 5) (int_bound 50) int)

let prop_by_machine_matches_machine_tasks =
  QCheck.Test.make ~name:"by_machine lists machine_tasks for every machine" ~count:300
    schedule_arb (fun params ->
      let s = random_schedule params in
      let buckets = Schedule.by_machine s in
      Array.length buckets = Schedule.m s
      && Array.for_all Fun.id
           (Array.mapi (fun i b -> Array.to_list b = Helpers.machine_tasks s i) buckets))

(* [by_machine] against the bucket sort it replaced: each machine's ids
   in increasing order, then [Array.stable_sort] by start through a
   [Float.compare] closure. Starts decrease with the id on most of the
   tasks, as in an LPT-order replay, and come from a few values, so
   buckets run past the merge sort's cutoff with many ties. *)
let old_by_machine s =
  Array.init (Schedule.m s) (fun i ->
      let bucket =
        Array.of_list
          (List.filter
             (fun j -> (Schedule.entry s j).Schedule.machine = i)
             (List.init (Schedule.n s) Fun.id))
      in
      let start j = (Schedule.entry s j).Schedule.start in
      Array.stable_sort (fun a b -> Float.compare (start a) (start b)) bucket;
      bucket)

let prop_by_machine_matches_stable_sort =
  QCheck.Test.make ~name:"by_machine = per-bucket stable_sort on LPT-like starts"
    ~count:200
    QCheck.(triple (int_range 1 4) (int_bound 2000) int)
    (fun (m, n, seed) ->
      let rng = Random.State.make [| seed |] in
      let s =
        Schedule.make ~m
          (Array.init n (fun j ->
               let start =
                 if Random.State.int rng 4 = 0 then float_of_int (Random.State.int rng 6)
                 else float_of_int ((n - j) / 7)
               in
               {
                 Schedule.machine = Random.State.int rng m;
                 start;
                 finish = start +. Random.State.float rng 2.0;
               }))
      in
      Schedule.by_machine s = old_by_machine s)

let prop_validate_and_gantt_unchanged =
  QCheck.Test.make ~name:"overlap violations and Gantt text match the per-machine scans"
    ~count:300 schedule_arb (fun (m, n, seed) ->
      let s = random_schedule (m, n, seed) in
      let other = random_schedule (m, n / 2, seed + 1) in
      let instance =
        Instance.of_ests ~m:(Schedule.m s) ~alpha:(Uncertainty.alpha 1.0)
          (Array.init n (fun j ->
               let e = Schedule.entry s j in
               Float.max 1e-3 (e.Schedule.finish -. e.Schedule.start)))
      in
      let overlaps =
        List.filter
          (function Schedule.Overlap _ -> true | _ -> false)
          (Schedule.validate instance (Realization.exact instance) s)
      in
      overlaps = overlaps_oracle s
      && Gantt.render ~width:30 s = render_oracle ~width:30 s
      && Gantt.render_two ~width:20 ~left_title:"a" ~right_title:"b" s other
         = render_two_oracle ~width:20 s other)

let () =
  Alcotest.run "schedule"
    [
      ( "measures",
        [
          Alcotest.test_case "basic" `Quick basic_measures;
          Alcotest.test_case "construction validation" `Quick make_validation;
          Alcotest.test_case "of_assignment" `Quick of_assignment_packs_back_to_back;
          Alcotest.test_case "of_soa matches make" `Quick of_soa_matches_make;
          Alcotest.test_case "of_soa validation" `Quick of_soa_validation;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts good" `Quick validate_accepts_good_schedule;
          Alcotest.test_case "wrong duration" `Quick validate_catches_wrong_duration;
          Alcotest.test_case "overlap" `Quick validate_catches_overlap;
          Alcotest.test_case "misplacement" `Quick validate_catches_misplacement;
          Alcotest.test_case "idle gaps ok" `Quick validate_allows_idle_gaps;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "all machines shown" `Quick gantt_contains_all_machines;
          Alcotest.test_case "empty schedule" `Quick gantt_zero_duration;
          Alcotest.test_case "side-by-side m check" `Quick gantt_two_requires_same_m;
        ] );
      ( "by machine",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_by_machine_matches_machine_tasks;
            prop_by_machine_matches_stable_sort;
            prop_validate_and_gantt_unchanged;
          ] );
    ]
