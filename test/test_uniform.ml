(* Tests for the uniform (related) machines extension. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Rng = Usched_prng.Rng

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let instance_of ?(m = 2) ?(alpha = 1.0) ests =
  Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ests

(* --- Engine with speeds --- *)

let engine_scales_durations () =
  let instance = instance_of [| 4.0; 4.0 |] in
  let realization = Realization.exact instance in
  let placement = Array.init 2 (fun _ -> Bitset.full 2) in
  let s =
    Engine.run ~speeds:[| 2.0; 0.5 |] instance realization
      ~placement:(Helpers.holders placement)
      ~order:[| 0; 1 |]
  in
  (* Machine 0 at speed 2 runs its task in 2; machine 1 at 0.5 in 8. *)
  let e0 = Schedule.entry s 0 and e1 = Schedule.entry s 1 in
  close "fast machine" 2.0 (e0.Schedule.finish -. e0.Schedule.start);
  close "slow machine" 8.0 (e1.Schedule.finish -. e1.Schedule.start)

let engine_fast_machine_serves_more () =
  (* 5 unit tasks, speeds (4, 1): the fast machine should take most. *)
  let instance = instance_of (Array.make 5 1.0) in
  let realization = Realization.exact instance in
  let placement = Array.init 5 (fun _ -> Bitset.full 2) in
  let s =
    Engine.run ~speeds:[| 4.0; 1.0 |] instance realization
      ~placement:(Helpers.holders placement)
      ~order:[| 0; 1; 2; 3; 4 |]
  in
  let on_fast = List.length (Helpers.machine_tasks s 0) in
  checkb "fast machine runs the majority" true (on_fast >= 4)

let engine_rejects_bad_speeds () =
  let instance = instance_of [| 1.0 |] in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 2 |] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Engine.run: speeds length differs from machine count")
    (fun () ->
      ignore
        (Engine.run ~speeds:[| 1.0 |] instance realization
          ~placement:(Helpers.holders placement)
           ~order:[| 0 |]));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Engine.run: speeds must be > 0") (fun () ->
      ignore
        (Engine.run ~speeds:[| 1.0; 0.0 |] instance realization
          ~placement:(Helpers.holders placement)
           ~order:[| 0 |]))

let validate_with_speeds () =
  let instance = instance_of [| 4.0 |] in
  let realization = Realization.exact instance in
  let placement = [| Bitset.full 2 |] in
  let speeds = [| 2.0; 1.0 |] in
  let s = Engine.run ~speeds instance realization
      ~placement:(Helpers.holders placement) ~order:[| 0 |] in
  Alcotest.(check int) "valid under speeds" 0
    (List.length (Schedule.validate ~speeds instance realization s));
  (* The same schedule read with unit speeds has a wrong duration. *)
  checkb "invalid without speeds" true
    (Schedule.validate instance realization s <> [])

(* --- ECT-LPT --- *)

(* Phase 1 of uniform LPT-No Choice: the ECT-LPT machine of each task. *)
let ect_lpt ~speeds instance =
  let placement = Core.Uniform.lpt_placement ~speeds instance in
  Array.map Usched_model.Bitset.choose (Helpers.task_sets (Core.Placement.sets placement))

let ect_lpt_prefers_fast_machines () =
  (* One big task: must go to the fastest machine. *)
  let instance = instance_of ~m:3 [| 6.0 |] in
  Alcotest.(check int) "fastest machine" 1
    (ect_lpt ~speeds:[| 1.0; 3.0; 2.0 |] instance).(0)

let ect_lpt_balances_finish_times () =
  (* Speeds (2,1), tasks (4,4,4): first two land on the fast machine
     (finish 2, then tie at 4 broken toward the lower id), the third on
     the slow one; both machines finish at 4. *)
  let instance = instance_of [| 4.0; 4.0; 4.0 |] in
  Alcotest.(check (array int)) "assignment" [| 0; 0; 1 |]
    (ect_lpt ~speeds:[| 2.0; 1.0 |] instance)

let ect_lpt_equal_speeds_is_lpt () =
  let instance = instance_of ~m:3 [| 9.0; 7.0; 5.0; 4.0; 3.0; 1.0 |] in
  let classic = Core.Assign.lpt ~m:3 ~weights:(Instance.ests instance) in
  Alcotest.(check (array int)) "same assignment" classic.Core.Assign.assignment
    (ect_lpt ~speeds:(Array.make 3 1.0) instance)

(* --- Lower bound --- *)

let lower_bound_cases () =
  (* Largest task on the fastest machine: 8/4 = 2 dominates total bound
     12/7. *)
  close "largest-on-fastest" 2.0
    (Core.Uniform.lower_bound ~speeds:[| 4.0; 2.0; 1.0 |] [| 8.0; 2.0; 2.0 |]);
  (* Total work over total speed dominates. *)
  close "total" 4.0
    (Core.Uniform.lower_bound ~speeds:[| 1.0; 1.0 |] [| 2.0; 2.0; 2.0; 2.0 |]);
  (* Unit speeds degenerate to the identical-machines average/max. *)
  close "identical machines" 3.0
    (Core.Uniform.lower_bound ~speeds:[| 1.0; 1.0 |] [| 3.0; 2.0; 1.0 |])

let lower_bound_sound_vs_brute_force () =
  let rng = Rng.create ~seed:11 () in
  for _ = 1 to 50 do
    let m = 2 + Rng.int rng 2 in
    let n = 1 + Rng.int rng 6 in
    let speeds = Array.init m (fun _ -> 0.5 +. (2.0 *. Rng.float rng)) in
    let p = Array.init n (fun _ -> 0.2 +. (5.0 *. Rng.float rng)) in
    (* Exact uniform optimum by enumerating all m^n assignments. *)
    let best = ref infinity in
    let loads = Array.make m 0.0 in
    let rec go t =
      if t = n then begin
        let mk = ref 0.0 in
        for i = 0 to m - 1 do
          mk := Float.max !mk (loads.(i) /. speeds.(i))
        done;
        if !mk < !best then best := !mk
      end
      else
        for i = 0 to m - 1 do
          loads.(i) <- loads.(i) +. p.(t);
          go (t + 1);
          loads.(i) <- loads.(i) -. p.(t)
        done
    in
    go 0;
    checkb "LB <= OPT" true (Core.Uniform.lower_bound ~speeds p <= !best +. 1e-9)
  done

(* The bound as it was defined before the top-m selection: a full
   descending sort of the task times, kept here as the oracle. The
   selection must reproduce it bit for bit, not just within a
   tolerance. *)
let full_sort_lower_bound ~speeds p =
  let m = Array.length speeds in
  let sorted_p = Array.copy p in
  Array.sort (fun a b -> Float.compare b a) sorted_p;
  let sorted_s = Array.copy speeds in
  Array.sort (fun a b -> Float.compare b a) sorted_s;
  let bound = ref 0.0 in
  let work = ref 0.0 and speed = ref 0.0 in
  for k = 0 to Stdlib.min m (Array.length p) - 1 do
    work := !work +. sorted_p.(k);
    speed := !speed +. sorted_s.(k);
    if !speed > 0.0 then bound := Float.max !bound (!work /. !speed)
  done;
  let total = Array.fold_left ( +. ) 0.0 p in
  let total_speed = Array.fold_left ( +. ) 0.0 speeds in
  Float.max !bound (total /. total_speed)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Task-time shapes that stress the selection: few distinct values (so
   duplicates straddle the top-m boundary), all equal, zeros, and
   sorted or reversed runs. Spiky times — a few large tasks among many
   tiny ones — make the top-m prefixes, not the total-work term, decide
   the bound, so a wrong selection shows. *)
let spiky ~m ~n spike =
  QCheck.Gen.(
    let* base = array_repeat n (float_bound_inclusive 0.01) in
    let* count = int_range 1 (Stdlib.min n (m + 2)) in
    let* spikes = list_repeat count (pair (int_bound (n - 1)) spike) in
    List.iter (fun (j, x) -> base.(j) <- x) spikes;
    return base)

let bound_case_gen =
  QCheck.Gen.(
    let* m = int_range 1 12 in
    let* n =
      frequency [ (1, return 0); (2, int_range 1 m); (1, return m); (3, int_range m 400) ]
    in
    let* speeds = array_repeat m (map (fun x -> 0.25 +. x) (float_bound_exclusive 4.0)) in
    let* raw =
      frequency
        [
          (3, array_repeat n (float_bound_inclusive 100.0));
          ( 4,
            if n = 0 then return [||]
            else spiky ~m ~n (map (fun e -> 10.0 ** e) (float_bound_inclusive 4.0)) );
          ( 2,
            if n = 0 then return [||]
            else spiky ~m ~n (map (fun d -> 100.0 *. float_of_int d) (int_range 1 3)) );
          (2, array_repeat n (map float_of_int (int_range 0 3)));
          (1, map (fun x -> Array.make n x) (float_bound_inclusive 10.0));
          (1, return (Array.make n 0.0));
          ( 1,
            array_repeat n
              (frequency [ (1, return 0.0); (1, float_bound_inclusive 5.0) ]) );
        ]
    in
    let* shape = int_range 0 2 in
    let p = Array.copy raw in
    if shape > 0 then Array.sort Float.compare p;
    let p = if shape = 2 then Array.of_list (List.rev (Array.to_list p)) else p in
    return (speeds, p))

let prop_lower_bound_matches_full_sort =
  QCheck.Test.make ~count:1000
    ~name:"top-m lower bound equals the full-sort definition bit for bit"
    (QCheck.make
       ~print:(fun (speeds, p) ->
         Printf.sprintf "speeds=[%s] p=[%s]"
           (String.concat ";" (Array.to_list (Array.map string_of_float speeds)))
           (String.concat ";" (Array.to_list (Array.map string_of_float p))))
       bound_case_gen)
    (fun (speeds, p) ->
      same_bits
        (Core.Uniform.lower_bound ~speeds p)
        (full_sort_lower_bound ~speeds p))

let prop_presorted_lower_bound =
  QCheck.Test.make ~count:1000
    ~name:"lower_bound_of equals the full-sort definition bit for bit"
    (QCheck.make bound_case_gen)
    (fun (speeds, p) ->
      same_bits
        (Core.Uniform.lower_bound_of p ~speeds)
        (full_sort_lower_bound ~speeds p))

let lower_bound_oracle_edges () =
  let check name speeds p =
    checkb name true
      (same_bits
         (Core.Uniform.lower_bound ~speeds p)
         (full_sort_lower_bound ~speeds p))
  in
  let speeds = [| 2.0; 0.5; 1.0; 1.5 |] in
  check "n = 0" speeds [||];
  check "n < m" speeds [| 3.0; 7.0 |];
  check "n = m" speeds [| 3.0; 7.0; 1.0; 5.0 |];
  check "duplicates at the boundary" speeds [| 1.0; 5.0; 5.0; 5.0; 5.0; 5.0; 2.0 |];
  check "all equal" speeds (Array.make 50 0.1);
  check "zeros" speeds (Array.make 9 0.0);
  check "signed zeros" speeds [| 0.0; -0.0; 0.0; -0.0; -0.0; 1.0 |];
  check "sorted" speeds (Array.init 100 (fun i -> 0.1 *. float_of_int i));
  check "reversed" speeds (Array.init 100 (fun i -> 0.1 *. float_of_int (100 - i)));
  check "sums overflow to NaN" [| max_float; max_float |] [| max_float; max_float |];
  check "n >> m" [| 1.0; 3.0; 0.5 |]
    (Array.init 100_000 (fun i ->
         if i mod 997 = 0 then float_of_int (i mod 1013) else 1e-6))

let lower_bound_rejects_non_finite () =
  let msg = "Uniform.lower_bound: task times must be finite and >= 0" in
  List.iter
    (fun (name, x) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Core.Uniform.lower_bound ~speeds:[| 1.0; 2.0 |] [| 1.0; x; 3.0 |])))
    [ ("nan", Float.nan); ("infinity", infinity); ("-infinity", neg_infinity); ("negative", -1.0) ]

(* --- Two-phase algorithms --- *)

let speeds4 = [| 2.0; 1.0; 1.0; 0.5 |]

(* The three related-machines families at [speeds4]. *)
let uniform4 =
  List.map
    (fun variant ->
      Core.Strategy.(build (Uniform { variant; speeds = speeds4 }) ~m:4))
    Core.Strategy.[ U_no_choice; U_no_restriction; U_group 2 ]

let scenario seed =
  let instance =
    instance_of ~m:4 ~alpha:1.8
      [| 9.0; 8.0; 6.0; 5.0; 4.0; 3.0; 2.0; 2.0; 1.0; 1.0 |]
  in
  let rng = Rng.create ~seed () in
  (instance, Realization.log_uniform_factor instance rng)

let uniform_schedules_valid () =
  let instance, realization = scenario 3 in
  List.iter
    (fun algo ->
      let placement, schedule =
        Core.Two_phase.run_full algo instance realization
      in
      checkb
        (algo.Core.Two_phase.name ^ " valid")
        true
        (Schedule.validate
           ~placement:(Core.Placement.sets placement)
           ~speeds:speeds4 instance realization schedule
        = []))
    uniform4

let uniform_ratios_reasonable () =
  (* Empirical sanity: every strategy stays within 3x of the lower
     bound on this family. *)
  let instance, realization = scenario 4 in
  let lb = Core.Uniform.lower_bound ~speeds:speeds4 (Realization.actuals realization) in
  List.iter
    (fun algo ->
      let makespan = Core.Two_phase.makespan algo instance realization in
      checkb (algo.Core.Two_phase.name ^ " sane") true
        (makespan >= lb -. 1e-9 && makespan <= (3.0 *. lb) +. 1e-9))
    uniform4

let unit_speeds_match_identical_pipeline () =
  let instance, realization = scenario 5 in
  let ones = Array.make 4 1.0 in
  let makespan spec =
    Core.Two_phase.makespan (Core.Strategy.build spec ~m:4) instance realization
  in
  close "no-choice matches"
    (makespan (No_replication Lpt))
    (makespan (Uniform { variant = U_no_choice; speeds = ones }));
  close "no-restriction matches"
    (makespan (Full_replication Lpt))
    (makespan (Uniform { variant = U_no_restriction; speeds = ones }))

let check_speeds_validation () =
  let on m =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 1.0) (Array.make m 1.0)
  in
  Alcotest.check_raises "length"
    (Invalid_argument "Uniform: speeds length differs from machine count")
    (fun () -> ignore (ect_lpt ~speeds:[| 1.0 |] (on 3)));
  Alcotest.check_raises "domain"
    (Invalid_argument "Uniform: speeds must be finite and > 0") (fun () ->
      ignore (ect_lpt ~speeds:[| 0.0 |] (on 1)))

let () =
  Alcotest.run "uniform"
    [
      ( "engine speeds",
        [
          Alcotest.test_case "durations scale" `Quick engine_scales_durations;
          Alcotest.test_case "fast machine serves more" `Quick
            engine_fast_machine_serves_more;
          Alcotest.test_case "speed validation" `Quick engine_rejects_bad_speeds;
          Alcotest.test_case "schedule validation" `Quick validate_with_speeds;
        ] );
      ( "ect-lpt",
        [
          Alcotest.test_case "prefers fast" `Quick ect_lpt_prefers_fast_machines;
          Alcotest.test_case "balances finish times" `Quick
            ect_lpt_balances_finish_times;
          Alcotest.test_case "unit speeds = LPT" `Quick ect_lpt_equal_speeds_is_lpt;
        ] );
      ( "lower bound",
        [
          Alcotest.test_case "cases" `Quick lower_bound_cases;
          Alcotest.test_case "sound vs brute force" `Quick
            lower_bound_sound_vs_brute_force;
          Alcotest.test_case "full-sort oracle edges" `Quick
            lower_bound_oracle_edges;
          Alcotest.test_case "non-finite times rejected" `Quick
            lower_bound_rejects_non_finite;
          QCheck_alcotest.to_alcotest prop_lower_bound_matches_full_sort;
          QCheck_alcotest.to_alcotest prop_presorted_lower_bound;
        ] );
      ( "two-phase",
        [
          Alcotest.test_case "valid schedules" `Quick uniform_schedules_valid;
          Alcotest.test_case "sane ratios" `Quick uniform_ratios_reasonable;
          Alcotest.test_case "unit speeds degenerate" `Quick
            unit_speeds_match_identical_pipeline;
          Alcotest.test_case "speed checks" `Quick check_speeds_validation;
        ] );
    ]
