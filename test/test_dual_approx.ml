(* Tests for the dual approximation scheme. *)

module Da = Usched_core.Dual_approx
module Opt = Usched_core.Opt
module Assign = Usched_core.Assign
module Lb = Usched_core.Lower_bounds

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let trivial_cases () =
  close "no tasks" 0.0 (Da.makespan ~m:3 [||]);
  close "one task" 5.0 (Da.makespan ~m:3 [| 5.0 |]);
  close "single machine" 6.0 (Da.makespan ~m:1 [| 1.0; 2.0; 3.0 |])

let beats_lpt_on_classic_instance () =
  (* LPT yields 7 on (3,3,2,2,2); the scheme with a tight epsilon finds
     the optimal 6. *)
  let p = [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  checkb "below LPT" true (Da.makespan ~epsilon:0.1 ~m:2 p < 7.0 -. 1e-9)

let within_epsilon_of_optimum () =
  let rng = Usched_prng.Rng.create ~seed:21 () in
  for _ = 1 to 25 do
    let n = 5 + Usched_prng.Rng.int rng 10 in
    let m = 2 + Usched_prng.Rng.int rng 3 in
    let p = Array.init n (fun _ -> 0.1 +. (10.0 *. Usched_prng.Rng.float rng)) in
    let opt = Opt.makespan ~m p in
    List.iter
      (fun epsilon ->
        let got = Da.makespan ~epsilon ~m p in
        checkb
          (Printf.sprintf "eps=%.2f within bound" epsilon)
          true
          (got <= ((1.0 +. epsilon) *. opt) +. 1e-6);
        checkb "never below optimum" true (got >= opt -. 1e-9))
      [ 1.0; 0.5; 1.0 /. 3.0; 0.2 ]
  done

let feasible_at_accepts_above_optimum () =
  let p = [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  (* OPT = 6: the test must succeed at t = 6 and 7. *)
  List.iter
    (fun t ->
      match Da.feasible_at ~epsilon:(1.0 /. 3.0) ~t ~m:2 p with
      | Some r ->
          let max_load = Array.fold_left Float.max 0.0 r.Assign.loads in
          checkb "loads within (1+eps)t" true
            (max_load <= ((1.0 +. (1.0 /. 3.0)) *. t) +. 1e-9)
      | None -> Alcotest.failf "t=%g should be feasible" t)
    [ 6.0; 7.0 ]

let feasible_at_rejects_below_optimum () =
  let p = [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  (* t below the largest task is a certified impossibility. *)
  checkb "t below largest task" true
    (Da.feasible_at ~epsilon:(1.0 /. 3.0) ~t:2.5 ~m:2 p = None);
  (* Below the optimum (6) the dual contract allows success, but only
     with every load within (1+eps)*t. *)
  (match Da.feasible_at ~epsilon:(1.0 /. 3.0) ~t:5.5 ~m:2 p with
  | None -> ()
  | Some r ->
      let max_load = Array.fold_left Float.max 0.0 r.Assign.loads in
      checkb "relaxed capacity respected" true
        (max_load <= ((1.0 +. (1.0 /. 3.0)) *. 5.5) +. 1e-9));
  (* Far enough below the optimum even the rounded relaxation fails:
     rounded sizes sum to > m*t at t=4. *)
  checkb "t=4 infeasible" true
    (Da.feasible_at ~epsilon:(1.0 /. 3.0) ~t:4.0 ~m:2 p = None)

let assignment_covers_all_tasks () =
  let p = Array.init 20 (fun i -> 1.0 +. float_of_int (i mod 5)) in
  (* The scheme's own makespan is at least OPT, so the dual test there
     must hand back a full assignment. *)
  match Da.feasible_at ~epsilon:(1.0 /. 3.0) ~t:(Da.makespan ~m:4 p) ~m:4 p with
  | None -> Alcotest.fail "the scheme's makespan must pass the dual test"
  | Some r ->
      Alcotest.(check int) "assignment length" 20 (Array.length r.Assign.assignment);
      (* Loads must equal the recomputed per-machine sums. *)
      let recomputed = Array.make 4 0.0 in
      Array.iteri (fun j i -> recomputed.(i) <- recomputed.(i) +. p.(j)) r.Assign.assignment;
      Alcotest.(check (array (float 1e-9))) "loads consistent" recomputed r.Assign.loads

let target_brackets_makespan () =
  let p = Array.init 15 (fun i -> 1.0 +. float_of_int (i mod 7)) in
  let epsilon = 0.25 in
  let makespan = Da.makespan ~epsilon ~m:3 p in
  checkb "makespan >= LB" true (makespan >= Lb.best ~m:3 p -. 1e-6);
  match Da.feasible_at ~epsilon ~t:makespan ~m:3 p with
  | None -> Alcotest.fail "a makespan the scheme reached is a feasible target"
  | Some r ->
      checkb "loads <= (1+eps) * target" true
        (Assign.makespan r <= ((1.0 +. epsilon) *. makespan) +. 1e-9)

let many_distinct_big_classes () =
  (* Regression for the typed class sort: distinct sizes spread over
     several rounding classes, submitted in scrambled order so the class
     table's fold order is not already ascending — the packing relies on
     the classes coming out in increasing numeric order. *)
  let p = [| 5.9; 9.7; 6.2; 8.3; 7.1; 4.8; 3.6; 4.4 |] in
  let opt = Opt.makespan ~m:3 p in
  List.iter
    (fun epsilon ->
      let mk = Da.makespan ~epsilon ~m:3 p in
      checkb
        (Printf.sprintf "eps=%.2f within bound" epsilon)
        true
        (mk <= ((1.0 +. epsilon) *. opt) +. 1e-6))
    [ 0.2; 1.0 /. 3.0; 0.5 ]

let invalid_inputs () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Dual_approx: m must be >= 1")
    (fun () -> ignore (Da.makespan ~m:0 [| 1.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dual_approx: negative time") (fun () ->
      ignore (Da.makespan ~m:1 [| -1.0 |]));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Dual_approx: epsilon must be in (0, 1]") (fun () ->
      ignore (Da.makespan ~epsilon:0.0 ~m:1 [| 1.0 |]))

let prop_guarantee =
  QCheck.Test.make ~name:"within (1+eps) of exact optimum" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 12) (float_range 0.1 10.0)))
    (fun (m, p) ->
      let p = Array.of_list p in
      let opt = Opt.makespan ~m p in
      let epsilon = 1.0 /. 3.0 in
      Da.makespan ~epsilon ~m p <= ((1.0 +. epsilon) *. opt) +. 1e-6)

let prop_never_worse_than_lpt =
  QCheck.Test.make ~name:"never worse than the LPT incumbent" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 0 15) (float_range 0.1 10.0)))
    (fun (m, p) ->
      let p = Array.of_list p in
      Da.makespan ~m p <= Assign.makespan (Assign.lpt ~m ~weights:p) +. 1e-9)

let () =
  Alcotest.run "dual_approx"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial" `Quick trivial_cases;
          Alcotest.test_case "beats LPT" `Quick beats_lpt_on_classic_instance;
          Alcotest.test_case "epsilon sweep vs optimum" `Quick
            within_epsilon_of_optimum;
          Alcotest.test_case "dual test accepts" `Quick
            feasible_at_accepts_above_optimum;
          Alcotest.test_case "dual test rejects" `Quick
            feasible_at_rejects_below_optimum;
          Alcotest.test_case "assignment consistent" `Quick
            assignment_covers_all_tasks;
          Alcotest.test_case "target bracketing" `Quick target_brackets_makespan;
          Alcotest.test_case "many distinct big classes" `Quick
            many_distinct_big_classes;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_guarantee; prop_never_worse_than_lpt ] );
    ]
