(* Unit and property tests for MULTIFIT. *)

module Multifit = Usched_core.Multifit
module Assign = Usched_core.Assign
module Opt = Usched_core.Opt

let close = Alcotest.(check (float 1e-9))

let beats_lpt_on_classic_instance () =
  (* On the (3,3,2,2,2) instance LPT yields 7; MULTIFIT finds 6. *)
  let p = [| 3.0; 3.0; 2.0; 2.0; 2.0 |] in
  close "optimal here" 6.0 (Multifit.makespan ~m:2 p);
  close "LPT is worse" 7.0 (Assign.makespan (Assign.lpt ~m:2 ~weights:p))

let empty_and_trivial () =
  close "no tasks" 0.0 (Multifit.makespan ~m:3 [||]);
  close "one task" 5.0 (Multifit.makespan ~m:3 [| 5.0 |])

let assignment_loads_consistent () =
  let p = [| 7.0; 5.0; 4.0; 3.0; 3.0; 2.0 |] in
  let r = Multifit.schedule ~m:2 p in
  let recomputed = Array.make 2 0.0 in
  Array.iteri (fun j i -> recomputed.(i) <- recomputed.(i) +. p.(j)) r.Assign.assignment;
  Alcotest.(check (array (float 1e-9))) "loads match" recomputed r.Assign.loads

let invalid_inputs () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Multifit: m must be >= 1")
    (fun () -> ignore (Multifit.schedule ~m:0 [| 1.0 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Multifit: negative time")
    (fun () -> ignore (Multifit.schedule ~m:1 [| -1.0 |]))

let prop_within_coffman_bound =
  QCheck.Test.make ~name:"within 13/11 + 2^-k of the exact optimum" ~count:200
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_range 1 13) (float_range 0.1 10.0)))
    (fun (m, p) ->
      let p = Array.of_list p in
      let opt = Opt.makespan ~m p in
      (* Coffman-Garey-Johnson: 13/11 + 2^-k after k iterations. *)
      let bound = (13.0 /. 11.0) +. (2.0 ** -20.0) in
      Multifit.makespan ~m p <= (bound *. opt) +. 1e-9)

let prop_never_worse_than_lpt_start =
  QCheck.Test.make ~name:"never worse than the LPT incumbent" ~count:200
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_range 0 20) (float_range 0.1 10.0)))
    (fun (m, p) ->
      let p = Array.of_list p in
      Multifit.makespan ~m p
      <= Assign.makespan (Assign.lpt ~m ~weights:p) +. 1e-9)

let () =
  Alcotest.run "multifit"
    [
      ( "unit",
        [
          Alcotest.test_case "beats LPT" `Quick beats_lpt_on_classic_instance;
          Alcotest.test_case "trivial" `Quick empty_and_trivial;
          Alcotest.test_case "loads consistent" `Quick assignment_loads_consistent;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_within_coffman_bound; prop_never_worse_than_lpt_start ] );
    ]
