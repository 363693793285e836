(* Unit and property tests for the greedy assignment machinery. *)

module Assign = Usched_core.Assign

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let ls_round_robin_on_equal () =
  let r = Assign.ls ~m:3 ~weights:[| 1.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check (array int)) "cycles through machines" [| 0; 1; 2; 0 |]
    r.Assign.assignment;
  Alcotest.(check (array (float 1e-12))) "loads" [| 2.0; 1.0; 1.0 |] r.Assign.loads

let ls_least_loaded () =
  let r = Assign.ls ~m:2 ~weights:[| 5.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check (array int)) "fills the lighter machine" [| 0; 1; 1; 1 |]
    r.Assign.assignment

let lpt_sorts_first () =
  (* Weights (1, 5, 3) on 2 machines: LPT assigns 5->m0, 3->m1, 1->m1. *)
  let r = Assign.lpt ~m:2 ~weights:[| 1.0; 5.0; 3.0 |] in
  Alcotest.(check (array int)) "assignment" [| 1; 0; 1 |] r.Assign.assignment;
  close "makespan" 5.0 (Assign.makespan r)

let lpt_classic_example () =
  (* Example where submission-order LS is bad but LPT is optimal. *)
  let weights = [| 1.0; 1.0; 1.0; 3.0 |] in
  let ls = Assign.ls ~m:2 ~weights in
  let lpt = Assign.lpt ~m:2 ~weights in
  close "LS gets 4" 4.0 (Assign.makespan ls);
  close "LPT gets 3" 3.0 (Assign.makespan lpt)

let decreasing_order_ties_by_id () =
  (* ids 0 and 1 tie at 3.0; the smaller id comes first. *)
  Alcotest.(check (array int)) "order" [| 0; 1; 2 |]
    (Usched_model.Argsort.decreasing [| 3.0; 3.0; 1.0 |])

let empty_weights () =
  let r = Assign.ls ~m:2 ~weights:[||] in
  Alcotest.(check (array int)) "no tasks" [||] r.Assign.assignment;
  close "zero makespan" 0.0 (Assign.makespan r)

let invalid_inputs () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Assign: m must be >= 1")
    (fun () -> ignore (Assign.ls ~m:0 ~weights:[| 1.0 |]));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Assign: negative weight") (fun () ->
      ignore (Assign.ls ~m:1 ~weights:[| -1.0 |]));
  Alcotest.check_raises "bad order" (Invalid_argument "Assign: order is not a permutation")
    (fun () ->
      ignore (Assign.list_assign ~m:1 ~weights:[| 1.0; 1.0 |] ~order:[| 1; 1 |]))

(* The permutation check refuses a repeated id wherever it repeats
   (across a bitmap byte or word boundary too), an id outside [0, n)
   and an order of the wrong length, each with its message. *)
let order_checks () =
  let not_perm = Invalid_argument "Assign: order is not a permutation" in
  let weights n = Array.make n 1.0 in
  List.iter
    (fun (n, dup, at) ->
      let order = Array.init n Fun.id in
      order.(at) <- dup;
      Alcotest.check_raises (Printf.sprintf "n=%d: id %d again at %d" n dup at) not_perm
        (fun () -> ignore (Assign.list_assign ~m:2 ~weights:(weights n) ~order)))
    [ (2, 0, 1); (9, 7, 8); (70, 61, 62); (70, 62, 69); (200, 0, 199) ];
  List.iter
    (fun bad ->
      Alcotest.check_raises (Printf.sprintf "id %d out of range" bad) not_perm (fun () ->
          ignore (Assign.list_assign ~m:2 ~weights:(weights 3) ~order:[| 0; bad; 2 |])))
    [ -1; 3; max_int; min_int ];
  Alcotest.check_raises "short order"
    (Invalid_argument "Assign: order length differs from weights") (fun () ->
      ignore (Assign.list_assign ~m:2 ~weights:(weights 3) ~order:[| 0; 1 |]));
  let order = Array.init 200 (fun j -> 199 - j) in
  Alcotest.(check int) "a reversed order is a permutation" 200
    (Array.length (Assign.list_assign ~m:2 ~weights:(weights 200) ~order).Assign.assignment)

let loads_consistent_with_assignment () =
  let weights = [| 2.0; 7.0; 1.5; 3.0; 3.0; 0.5 |] in
  let r = Assign.lpt ~m:3 ~weights in
  let recomputed = Array.make 3 0.0 in
  Array.iteri
    (fun j i -> recomputed.(i) <- recomputed.(i) +. weights.(j))
    r.Assign.assignment;
  Alcotest.(check (array (float 1e-12))) "loads match" recomputed r.Assign.loads

let prop_lpt_within_graham_bound =
  QCheck.Test.make ~name:"LPT within 4/3 - 1/3m of the exact optimum" ~count:150
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 14) (float_range 0.1 20.0)))
    (fun (m, weights) ->
      let weights = Array.of_list weights in
      let r = Assign.lpt ~m ~weights in
      let opt = Usched_core.Opt.makespan ~m weights in
      Assign.makespan r <= (Usched_core.Guarantees.lpt_offline ~m *. opt) +. 1e-9)

let prop_ls_within_graham_bound =
  QCheck.Test.make ~name:"LS within 2 - 1/m of the exact optimum" ~count:150
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 14) (float_range 0.1 20.0)))
    (fun (m, weights) ->
      let weights = Array.of_list weights in
      let r = Assign.ls ~m ~weights in
      let opt = Usched_core.Opt.makespan ~m weights in
      Assign.makespan r <= (Usched_core.Guarantees.list_scheduling ~m *. opt) +. 1e-9)

let prop_lpt_never_worse_than_ls_makespan_bound =
  QCheck.Test.make ~name:"all tasks assigned to a valid machine" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 30) (float_range 0.1 20.0)))
    (fun (m, weights) ->
      let weights = Array.of_list weights in
      let r = Assign.lpt ~m ~weights in
      Array.for_all (fun i -> i >= 0 && i < m) r.Assign.assignment)

let () =
  checkb "self-check" true true;
  Alcotest.run "assign"
    [
      ( "unit",
        [
          Alcotest.test_case "LS round robin" `Quick ls_round_robin_on_equal;
          Alcotest.test_case "LS least loaded" `Quick ls_least_loaded;
          Alcotest.test_case "LPT sorts" `Quick lpt_sorts_first;
          Alcotest.test_case "classic LS vs LPT" `Quick lpt_classic_example;
          Alcotest.test_case "order ties" `Quick decreasing_order_ties_by_id;
          Alcotest.test_case "empty" `Quick empty_weights;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
          Alcotest.test_case "order checks keep their messages" `Quick order_checks;
          Alcotest.test_case "loads consistent" `Quick loads_consistent_with_assignment;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lpt_within_graham_bound;
            prop_ls_within_graham_bound;
            prop_lpt_never_worse_than_ls_makespan_bound;
          ] );
    ]
