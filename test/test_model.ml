(* Unit tests for tasks, uncertainty, instances and realizations. *)

module Task = Usched_model.Task
module Uncertainty = Usched_model.Uncertainty
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let task_validation () =
  Alcotest.check_raises "zero estimate"
    (Invalid_argument "Task.make: estimate must be > 0") (fun () ->
      ignore (Task.make ~id:0 ~est:0.0 ()));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Task.make: negative size") (fun () ->
      ignore (Task.make ~id:0 ~est:1.0 ~size:(-1.0) ()));
  Alcotest.check_raises "negative id" (Invalid_argument "Task.make: negative id")
    (fun () -> ignore (Task.make ~id:(-1) ~est:1.0 ()))

let task_default_size () =
  close "default size 1" 1.0 (Task.size (Task.make ~id:0 ~est:2.0 ()))

(* The LPT order of rows built with [Task.make]: bigger estimate first,
   ties by id. *)
let task_lpt_ordering () =
  let a = Task.make ~id:0 ~est:3.0 () in
  let b = Task.make ~id:1 ~est:5.0 () in
  let c = Task.make ~id:2 ~est:3.0 () in
  let inst = Instance.make ~m:1 ~alpha:(Uncertainty.alpha 1.0) [| a; b; c |] in
  Alcotest.(check (array int)) "bigger first, tie by id" [| 1; 0; 2 |]
    (Instance.lpt_order inst)

let alpha_validation () =
  Alcotest.check_raises "alpha below 1"
    (Invalid_argument "Uncertainty.alpha: factor must be finite and >= 1")
    (fun () -> ignore (Uncertainty.alpha 0.9));
  Alcotest.check_raises "alpha nan"
    (Invalid_argument "Uncertainty.alpha: factor must be finite and >= 1")
    (fun () -> ignore (Uncertainty.alpha Float.nan));
  close "exact alpha" 1.0 (Uncertainty.to_float (Uncertainty.alpha 1.0))

let alpha_interval () =
  let a = Uncertainty.alpha 2.0 in
  close "lower" 4.0 (Uncertainty.clamp a ~est:8.0 0.0);
  close "upper" 16.0 (Uncertainty.clamp a ~est:8.0 100.0)

let alpha_admissible () =
  let a = Uncertainty.alpha 2.0 in
  checkb "inside" true (Uncertainty.admissible a ~est:8.0 ~actual:8.0);
  checkb "at lower edge" true (Uncertainty.admissible a ~est:8.0 ~actual:4.0);
  checkb "at upper edge" true (Uncertainty.admissible a ~est:8.0 ~actual:16.0);
  checkb "below" false (Uncertainty.admissible a ~est:8.0 ~actual:3.9);
  checkb "above" false (Uncertainty.admissible a ~est:8.0 ~actual:16.1)

let alpha_clamp () =
  let a = Uncertainty.alpha 2.0 in
  close "clamps down" 16.0 (Uncertainty.clamp a ~est:8.0 100.0);
  close "clamps up" 4.0 (Uncertainty.clamp a ~est:8.0 0.1);
  close "identity inside" 10.0 (Uncertainty.clamp a ~est:8.0 10.0)

let instance_construction () =
  let inst =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.5) [| 3.0; 1.0; 2.0 |]
  in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check int) "m" 3 (Instance.m inst);
  close "est of task 2" 2.0 (Instance.est inst 2)

let instance_id_check () =
  let tasks = [| Task.make ~id:1 ~est:1.0 () |] in
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Instance.make: task ids must be 0..n-1 in order")
    (fun () -> ignore (Instance.make ~m:1 ~alpha:(Uncertainty.alpha 1.0) tasks))

let instance_m_check () =
  Alcotest.check_raises "m = 0"
    (Invalid_argument "Instance.make: need at least one machine") (fun () ->
      ignore (Instance.make ~m:0 ~alpha:(Uncertainty.alpha 1.0) [||]))

let instance_lpt_order () =
  let inst =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 3.0; 2.0; 3.0 |]
  in
  Alcotest.(check (array int)) "order" [| 1; 3; 2; 0 |] (Instance.lpt_order inst)

(* The order is sorted once per instance and shared: every call, and
   every copy that keeps the estimates, returns the same array. An
   instance built on other estimates sorts its own. *)
let instance_lpt_order_memo () =
  let inst =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 3.0; 2.0; 3.0 |]
  in
  let order = Instance.lpt_order inst in
  checkb "a second call returns the same array" true (Instance.lpt_order inst == order);
  let module M = Usched_model in
  List.iter
    (fun (what, copy) ->
      checkb (what ^ " shares the order") true (Instance.lpt_order copy == order))
    [
      ("with_failure", Instance.with_failure inst (Some (M.Failure.uniform ~m:2 ~p:0.1)));
      ( "with_speed_band",
        Instance.with_speed_band inst (Some (M.Speed_band.uniform ~m:2 ~lo:0.5 ~hi:2.0)) );
      ("with_topology", Instance.with_topology inst (Some (M.Topology.uniform ~m:2)));
    ];
  let other =
    Instance.of_columns ~m:2 ~alpha:(Uncertainty.alpha 1.0)
      ~ests:[| 3.0; 1.0; 2.0; 4.0 |] ~sizes:(Instance.sizes inst) ()
  in
  Alcotest.(check (array int)) "other estimates, own order" [| 3; 0; 2; 1 |]
    (Instance.lpt_order other);
  Alcotest.(check (array int)) "the first order is untouched" [| 1; 3; 2; 0 |] order

(* The argsort against the comparator sort it replaced: decreasing
   [Float.compare], ties by increasing id. Estimates come from a few
   values, so most of them tie, and lengths reach well past the merge
   sort's insertion cutoff. *)
let old_lpt_order ests =
  let order = Array.init (Array.length ests) (fun j -> j) in
  Array.sort
    (fun a b ->
      match Float.compare ests.(b) ests.(a) with 0 -> Int.compare a b | c -> c)
    order;
  order

let prop_lpt_order_matches_comparator =
  QCheck.Test.make ~name:"lpt_order = Array.sort with the tie-by-id comparator"
    ~count:300
    QCheck.(triple (int_bound 3000) (int_range 1 12) int)
    (fun (n, values, seed) ->
      let rng = Random.State.make [| seed |] in
      let ests =
        Array.init n (fun _ -> 0.5 +. float_of_int (Random.State.int rng values))
      in
      let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) ests in
      Instance.lpt_order inst = old_lpt_order ests)

(* The same on raw weight columns, whose keys may be NaN, infinite or
   a signed zero (Float.compare puts NaN below every number and -0.0
   level with 0.0). *)
let prop_argsort_matches_comparator_on_specials =
  let specials = [| Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1.0; 2.0 |] in
  QCheck.Test.make ~name:"Argsort.decreasing = comparator sort on special floats"
    ~count:300
    QCheck.(pair (int_bound 200) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let keys =
        Array.init n (fun _ -> specials.(Random.State.int rng (Array.length specials)))
      in
      Usched_model.Argsort.decreasing keys = old_lpt_order keys)

let instance_sizes () =
  let inst =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0)
      ~sizes:[| 5.0; 6.0 |] [| 1.0; 2.0 |]
  in
  close "total size" 11.0 (Instance.total_size inst);
  close "max size" 6.0 (Instance.max_size inst)

let instance_sizes_length_check () =
  Alcotest.check_raises "sizes mismatch"
    (Invalid_argument "Instance.of_ests: sizes length mismatch") (fun () ->
      ignore
        (Instance.of_ests ~m:1 ~alpha:(Uncertainty.alpha 1.0) ~sizes:[| 1.0 |]
           [| 1.0; 2.0 |]))

let realization_validation () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 4.0 |] in
  (* 1.0 < 4.0/2.0, outside the alpha interval. *)
  checkb "of_actuals rejects" true
    (try
       ignore (Realization.of_actuals inst [| 1.0; 4.0 |]);
       false
     with Invalid_argument _ -> true);
  let r = Realization.of_actuals inst [| 2.0; 8.0 |] in
  close "actual 0" 2.0 (Realization.actual r 0);
  close "total" 10.0 (Realization.total r)

let realization_of_factors () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 6.0 |] in
  let r = Realization.of_factors inst [| 2.0; 0.5 |] in
  close "inflated" 8.0 (Realization.actual r 0);
  close "deflated" 3.0 (Realization.actual r 1)

let realization_exact () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 3.0) [| 4.0; 6.0 |] in
  let r = Realization.exact inst in
  Alcotest.(check (array (float 1e-12))) "actual = est" [| 4.0; 6.0 |]
    (Realization.actuals r)

let realization_random_models_admissible () =
  let inst =
    Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.7)
      (Array.init 50 (fun i -> 1.0 +. float_of_int i))
  in
  let rng = Rng.create ~seed:3 () in
  (* of_actuals validates internally; building each model 20 times must
     never raise. *)
  for _ = 1 to 20 do
    ignore (Realization.uniform_factor inst rng);
    ignore (Realization.log_uniform_factor inst rng);
    ignore (Realization.extremes ~p_high:0.5 inst rng)
  done;
  checkb "all admissible" true true

let realization_extremes_two_point () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 4.0 |] in
  let rng = Rng.create ~seed:4 () in
  for _ = 1 to 50 do
    let r = Realization.extremes ~p_high:0.5 inst rng in
    Array.iter
      (fun actual ->
        checkb "extreme value" true
          (Float.abs (actual -. 8.0) < 1e-9 || Float.abs (actual -. 2.0) < 1e-9))
      (Realization.actuals r)
  done

let realization_biased () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 6.0 |] in
  let r = Realization.biased ~factor:1.5 inst in
  Alcotest.(check (array (float 1e-12))) "uniformly scaled" [| 6.0; 9.0 |]
    (Realization.actuals r);
  checkb "factor outside interval rejected" true
    (try
       ignore (Realization.biased ~factor:3.0 inst);
       false
     with Invalid_argument _ -> true)

let realization_clustered () =
  let inst =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0) (Array.make 8 4.0)
  in
  let rng = Rng.create ~seed:9 () in
  let r = Realization.clustered ~clusters:2 inst in
  let r = r rng in
  (* Tasks 0,2,4,6 share one factor; 1,3,5,7 the other. *)
  List.iter
    (fun j ->
      close "even cluster" (Realization.actual r 0) (Realization.actual r j))
    [ 2; 4; 6 ];
  List.iter
    (fun j ->
      close "odd cluster" (Realization.actual r 1) (Realization.actual r j))
    [ 3; 5; 7 ];
  checkb "clusters < 1 rejected" true
    (try
       ignore (Realization.clustered ~clusters:0 inst rng);
       false
     with Invalid_argument _ -> true)

let realization_alpha_one_is_exact () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0; 6.0 |] in
  let rng = Rng.create ~seed:5 () in
  let r = Realization.log_uniform_factor inst rng in
  Alcotest.(check (array (float 1e-12))) "no wiggle room" [| 4.0; 6.0 |]
    (Realization.actuals r)

(* ------------------------- failure profiles ------------------------ *)

module Failure = Usched_model.Failure
module Bitset = Usched_model.Bitset

let failure_validation () =
  checkb "valid profile accepted" true
    (Failure.m (Failure.make [| 0.0; 0.5; 1.0 |]) = 3);
  let rejected p =
    match Failure.make p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "empty rejected" true (rejected [||]);
  checkb "negative rejected" true (rejected [| 0.1; -0.1 |]);
  checkb "above one rejected" true (rejected [| 1.1 |]);
  checkb "nan rejected" true (rejected [| Float.nan |])

let failure_loss_probabilities () =
  let f = Failure.make [| 0.1; 0.5; 0.0; 1.0 |] in
  close "single machine" 0.1 (Failure.prob_all_lost f (Bitset.singleton 4 0));
  close "independent product" 0.05
    (Failure.prob_all_lost f (Bitset.of_list 4 [ 0; 1 ]));
  close "a never-failing member saves the set" 0.0
    (Failure.prob_all_lost f (Bitset.of_list 4 [ 0; 2 ]));
  close "a certain-failure member changes nothing" 0.1
    (Failure.prob_all_lost f (Bitset.of_list 4 [ 0; 3 ]));
  close "empty set protects nothing" 1.0
    (Failure.prob_all_lost f (Bitset.create 4));
  close "uniform accessor" 0.05 (Failure.p (Failure.uniform ~m:3 ~p:0.05) 2)

let failure_string_round_trip () =
  let f = Failure.make [| 0.1; 1.0 /. 3.0; Float.epsilon |] in
  (match Failure.of_spec ~m:3 (Failure.to_string f) with
  | Ok back -> checkb "bit-exact round trip" true (Helpers.failure_equal back f)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  let rejected s =
    match Failure.of_spec ~m:2 s with Error _ -> true | Ok _ -> false
  in
  checkb "junk rejected" true (rejected "0.1,zebra");
  checkb "out-of-range rejected" true (rejected "0.1,1.5");
  checkb "nan rejected" true (rejected "nan");
  checkb "empty rejected" true (rejected "")

let instance_failure_profile () =
  let inst = Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.5) [| 1.0; 2.0 |] in
  checkb "no profile by default" true (Instance.failure inst = None);
  close "default profile is the documented uniform" Failure.default_p
    (Failure.p (Instance.failure_or_default inst) 1);
  let f = Failure.make [| 0.2; 0.3 |] in
  let with_f = Instance.with_failure inst (Some f) in
  (match Instance.failure with_f with
  | Some g -> checkb "attached profile returned" true (Helpers.failure_equal g f)
  | None -> Alcotest.fail "profile lost");
  checkb "original instance untouched" true (Instance.failure inst = None);
  checkb "machine-count mismatch rejected" true
    (match Instance.with_failure inst (Some (Failure.uniform ~m:3 ~p:0.1)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let failure_log_loss () =
  let f = Failure.make [| 0.0; 0.25; 1.0 |] in
  checkb "never-failing machine" true (Failure.log_loss f 0 = Float.neg_infinity);
  close "log of p" (Float.log 0.25) (Failure.log_loss f 1);
  close "always-failing machine" 0.0 (Failure.log_loss f 2);
  (* prob_all_lost is exp of the summed logs over the set. *)
  let g = Failure.make [| 0.1; 0.2; 0.3 |] in
  close "set loss is exp of summed log losses"
    (Float.exp (Failure.log_loss g 0 +. Failure.log_loss g 2))
    (Failure.prob_all_lost g (Bitset.of_list 3 [ 0; 2 ]))

module Speed_band = Usched_model.Speed_band
module Topology = Usched_model.Topology

let instance_speed_band_default () =
  let inst = Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.5) [| 1.0; 2.0 |] in
  let nominal = Instance.speed_band_or_nominal inst in
  checkb "no band: the nominal all-1 band" true
    (Helpers.band_equal nominal (Speed_band.nominal ~m:3));
  let band = Speed_band.uniform ~m:3 ~lo:0.5 ~hi:2.0 in
  let with_band = Instance.with_speed_band inst (Some band) in
  checkb "attached band returned" true
    (Helpers.band_equal (Instance.speed_band_or_nominal with_band) band);
  checkb "removing the band restores the default" true
    (Helpers.band_equal
       (Instance.speed_band_or_nominal (Instance.with_speed_band with_band None))
       nominal)

let instance_topology_default () =
  let inst = Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.5) [| 1.0; 2.0 |] in
  let default = Instance.topology_or_uniform inst in
  checkb "no topology: the single-zone uniform one" true
    (Helpers.topology_equal default (Topology.uniform ~m:4));
  let zoned = Topology.zoned ~m:4 ~zones:2 ~bandwidth:3.0 () in
  let with_topology = Instance.with_topology inst (Some zoned) in
  checkb "attached topology returned" true
    (Helpers.topology_equal (Instance.topology_or_uniform with_topology) zoned);
  checkb "original instance untouched" true
    (Helpers.topology_equal (Instance.topology_or_uniform inst) default)

let () =
  Alcotest.run "model"
    [
      ( "task",
        [
          Alcotest.test_case "validation" `Quick task_validation;
          Alcotest.test_case "default size" `Quick task_default_size;
          Alcotest.test_case "LPT ordering" `Quick task_lpt_ordering;
        ] );
      ( "uncertainty",
        [
          Alcotest.test_case "alpha validation" `Quick alpha_validation;
          Alcotest.test_case "interval" `Quick alpha_interval;
          Alcotest.test_case "admissibility" `Quick alpha_admissible;
          Alcotest.test_case "clamp" `Quick alpha_clamp;
        ] );
      ( "instance",
        [
          Alcotest.test_case "construction" `Quick instance_construction;
          Alcotest.test_case "id validation" `Quick instance_id_check;
          Alcotest.test_case "machine validation" `Quick instance_m_check;
          Alcotest.test_case "LPT order" `Quick instance_lpt_order;
          Alcotest.test_case "LPT order sorted once" `Quick instance_lpt_order_memo;
          QCheck_alcotest.to_alcotest prop_lpt_order_matches_comparator;
          QCheck_alcotest.to_alcotest prop_argsort_matches_comparator_on_specials;
          Alcotest.test_case "sizes" `Quick instance_sizes;
          Alcotest.test_case "sizes length" `Quick instance_sizes_length_check;
          Alcotest.test_case "speed band default" `Quick
            instance_speed_band_default;
          Alcotest.test_case "topology default" `Quick instance_topology_default;
        ] );
      ( "failure",
        [
          Alcotest.test_case "validation" `Quick failure_validation;
          Alcotest.test_case "loss probabilities" `Quick
            failure_loss_probabilities;
          Alcotest.test_case "string round trip" `Quick
            failure_string_round_trip;
          Alcotest.test_case "instance profile plumbing" `Quick
            instance_failure_profile;
          Alcotest.test_case "log loss" `Quick failure_log_loss;
        ] );
      ( "realization",
        [
          Alcotest.test_case "validation" `Quick realization_validation;
          Alcotest.test_case "of_factors" `Quick realization_of_factors;
          Alcotest.test_case "exact" `Quick realization_exact;
          Alcotest.test_case "random models admissible" `Quick
            realization_random_models_admissible;
          Alcotest.test_case "extremes are two-point" `Quick
            realization_extremes_two_point;
          Alcotest.test_case "biased" `Quick realization_biased;
          Alcotest.test_case "clustered" `Quick realization_clustered;
          Alcotest.test_case "alpha=1 degenerates" `Quick
            realization_alpha_one_is_exact;
        ] );
    ]
