(* Tests for the strategy catalog: spec validation, the to_string /
   of_string round-trip grammar, the registry, and the golden
   equivalence property pinning the refactor — every spec builds an
   algorithm bit-for-bit identical to the pre-catalog inline
   construction. *)

module Core = Usched_core
module Strategy = Usched_core.Strategy
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------- spec generator -------------------------- *)

(* Valid specs only; m-dependent parameters stay in range for the given
   machine and task counts so [build] and phase 1 always succeed.
   [Memory_budget] gets budget >= n so every unit-size workload fits. *)
let spec_gen ~n ~m =
  QCheck.Gen.(
    let speeds k =
      array_size (return m)
        (map (fun i -> [| 0.5; 1.0; 2.0; 4.0 |].(i)) (int_bound 3))
      |> map (fun speeds -> Strategy.Uniform { variant = k; speeds })
    in
    let order = map (fun b -> if b then Strategy.Lpt else Strategy.Ls) bool in
    let pos_k = int_range 1 m in
    let delta = float_range 0.1 4.0 in
    oneof
      [
        map (fun o -> Strategy.No_replication o) order;
        map (fun o -> Strategy.Full_replication o) order;
        (let* o = order in
         let* k = pos_k in
         return (Strategy.Group { order = o; k }));
        map (fun k -> Strategy.Budgeted k) pos_k;
        map (fun f -> Strategy.Proportional f) (float_range 0.0 1.0);
        map (fun c -> Strategy.Selective c) (int_range 0 (n + 2));
        map (fun d -> Strategy.Sabo d) delta;
        map (fun d -> Strategy.Abo d) delta;
        map
          (fun b -> Strategy.Memory_budget (float_of_int n +. b))
          (float_range 0.0 20.0);
        (* Targets stay below what the default p=0.05 profile can reach
           even on one machine (loss 0.05^m per task, n tasks), so the
           solver's phase 1 always succeeds; a budget of >= n unit sizes
           never binds but exercises the constrained code path. *)
        (let tmax =
           1.0 -. (float_of_int n *. (0.05 ** float_of_int m))
         in
         let* target = float_range (0.05 *. tmax) (0.9 *. tmax) in
         let* budget =
           oneof
             [
               return None;
               map (fun b -> Some (float_of_int n +. b)) (float_range 0.0 20.0);
             ]
         in
         return (Strategy.Reliability { target; budget }));
        speeds Strategy.U_no_choice;
        speeds Strategy.U_no_restriction;
        (let* k = pos_k in
         speeds (Strategy.U_group k));
      ])

(* -------------------------- round trip ----------------------------- *)

let round_trip =
  QCheck.Test.make ~count:400 ~name:"of_string (to_string s) = Ok s"
    (QCheck.make
       ~print:(fun s -> Strategy.to_string s)
       QCheck.Gen.(
         let* n = int_range 1 16 in
         let* m = int_range 1 8 in
         spec_gen ~n ~m))
    (fun spec ->
      match Strategy.of_string (Strategy.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error _ -> false)

(* Floats that need the %.17g fallback must still round-trip. *)
let awkward_float_round_trip () =
  List.iter
    (fun delta ->
      let spec = Strategy.Sabo delta in
      match Strategy.of_string (Strategy.to_string spec) with
      | Ok spec' -> checkb "exact float round-trip" true (spec' = spec)
      | Error msg -> Alcotest.failf "rejected own printout: %s" msg)
    [ 0.1; 1.0 /. 3.0; 0x1.fffffffffffffp-2; epsilon_float; 1e300 ]

let negative_cases () =
  List.iter
    (fun input ->
      match Strategy.of_string input with
      | Ok spec ->
          Alcotest.failf "%S accepted as %s" input (Strategy.to_string spec)
      | Error msg -> checkb (input ^ " rejected with message") true (msg <> ""))
    [
      "";
      "bogus";
      "help";
      "ls-group";
      "ls-group:";
      "ls-group:x";
      "ls-group:0";
      "ls-group:-2";
      "ls-group:2:junk";
      "group";
      "group:0";
      "lpt-no-choice:3";
      "budgeted:0";
      "budgeted:1.5";
      "selective:x";
      "selective:-1";
      "proportional:1.5";
      "proportional:nan";
      "sabo:nan";
      "sabo:-1";
      "sabo:0";
      "sabo:inf";
      "abo:nan";
      "memory:-2";
      "memory:0";
      "memory";
      "uniform-lpt-no-choice:";
      "uniform-lpt-no-choice:0,1";
      "uniform-lpt-no-choice:1,nan";
      "uniform-ls-group:2";
      "uniform-ls-group:0:1,1";
      "uniform-ls-group:2:1,junk";
      "reliability";
      "reliability:";
      "reliability:nan";
      "reliability:2.0";
      "reliability:1";
      "reliability:0";
      "reliability:-0.5";
      "reliability:x";
      "reliability:0.9:budget";
      "reliability:0.9:budget:";
      "reliability:0.9:budget:nan";
      "reliability:0.9:budget:-1";
      "reliability:0.9:budget:inf";
      "reliability:0.9:x:1";
      "reliability:0.9:budget:2:extra";
    ]

(* Malformed reliability specs must come back with the family's own
   usage line (the TARGET[:budget:B] grammar), not just a generic
   parse error. *)
let reliability_errors_show_grammar () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Strategy.of_string "reliability:0.9:x:1" with
  | Ok _ -> Alcotest.fail "reliability:0.9:x:1 accepted"
  | Error msg ->
      checkb "shape error shows TARGET[:budget:B]" true
        (contains msg "TARGET[:budget:B]"));
  (match Strategy.of_string "reliability:2.0" with
  | Ok _ -> Alcotest.fail "reliability:2.0 accepted"
  | Error msg ->
      checkb "range error names the (0, 1) domain" true
        (contains msg "(0, 1)"));
  match Strategy.of_string "reliability:nan" with
  | Ok _ -> Alcotest.fail "reliability:nan accepted"
  | Error msg ->
      checkb "NaN rejected as not a number" true
        (contains msg "\"nan\" is not a number")

let unknown_name_lists_grammar () =
  match Strategy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      checkb "error carries the grammar" true
        (let contains hay needle =
           let lh = String.length hay and ln = String.length needle in
           let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
           go 0
         in
         contains msg "ls-group:K" && contains msg "sabo:DELTA")

let unknown_name_suggests () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Strategy.of_string "relibility:0.99" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error msg ->
      checkb "close misspelling gets a hint" true
        (contains msg "did you mean reliability?"));
  (match Strategy.of_string "lpt-no-choise" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error msg ->
      checkb "hint names the nearest keyword" true
        (contains msg "did you mean lpt-no-choice?"));
  match Strategy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      checkb "far-off names get no hint" false (contains msg "did you mean")

let group_alias () =
  checkb "group:4 is ls-group:4" true
    (Strategy.of_string "group:4"
    = Ok (Strategy.Group { order = Strategy.Ls; k = 4 }));
  checks "canonical printing" "ls-group:4"
    (match Strategy.of_string "group:4" with
    | Ok s -> Strategy.to_string s
    | Error e -> e)

(* ------------------------ validation ------------------------------- *)

let smart_constructors_reject () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "group k=0" true (rejects (fun () -> Strategy.group ~order:Ls ~k:0));
  checkb "budgeted k=0" true (rejects (fun () -> Strategy.budgeted ~k:0));
  checkb "selective count=-1" true
    (rejects (fun () -> Strategy.selective ~count:(-1)));
  checkb "sabo nan" true (rejects (fun () -> Strategy.sabo ~delta:Float.nan));
  checkb "sabo -1" true (rejects (fun () -> Strategy.sabo ~delta:(-1.0)));
  checkb "sabo inf" true
    (rejects (fun () -> Strategy.sabo ~delta:Float.infinity));
  checkb "abo nan" true (rejects (fun () -> Strategy.abo ~delta:Float.nan));
  checkb "memory 0" true
    (rejects (fun () -> Strategy.memory_budget ~budget:0.0));
  checkb "proportional 1.5" true
    (Result.is_error (Strategy.of_string "proportional:1.5"));
  checkb "uniform empty speeds" true
    (rejects (fun () -> Strategy.uniform ~variant:Strategy.U_no_choice ~speeds:[||]));
  checkb "uniform nan speed" true
    (rejects (fun () ->
         Strategy.uniform ~variant:Strategy.U_no_choice ~speeds:[| 1.0; Float.nan |]));
  checkb "valid sabo accepted" true (Strategy.sabo ~delta:0.5 = Strategy.Sabo 0.5)

let no_replication_pins_tasks () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 1.0; 3.0; 2.0; 5.0 |]
  in
  List.iter
    (fun order ->
      let spec = Strategy.no_replication order in
      checkb "plain constructor" true (spec = Strategy.No_replication order);
      checkb "grammar round trip" true
        (Strategy.of_string (Strategy.to_string spec) = Ok spec);
      let algo = Strategy.build spec ~m:3 in
      let realization = Realization.uniform_factor instance (Rng.create ~seed:2 ()) in
      let placement, schedule = Core.Two_phase.run_full algo instance realization in
      Array.iteri
        (fun j set ->
          checki "one replica" 1 (Bitset.cardinal set);
          checki "runs where placed" (Bitset.choose set)
            (Schedule.entry schedule j).Schedule.machine)
        (Core.Placement.sets placement))
    [ Strategy.Lpt; Strategy.Ls ]

let speed_robust_constructor () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "k=0 rejected" true (rejects (fun () -> Strategy.speed_robust ~k:0));
  checkb "negative k rejected" true (rejects (fun () -> Strategy.speed_robust ~k:(-2)));
  let spec = Strategy.speed_robust ~k:2 in
  checkb "valid k accepted" true (spec = Strategy.Speed_robust { k = 2 });
  checkb "grammar round trip" true (Strategy.of_string (Strategy.to_string spec) = Ok spec);
  (* Without a band the instance falls back to nominal speeds; the k
     classes still split the machines, one replica in each. *)
  let instance = Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.5) [| 3.0; 2.0; 1.0 |] in
  let placement = (Strategy.build spec ~m:4).Core.Two_phase.phase1 instance in
  Array.iter
    (fun set -> checki "one replica per class" 2 (Bitset.cardinal set))
    (Core.Placement.sets placement)

let build_rejects_m_mismatch () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "group k > m" true
    (rejects (fun () -> Strategy.build (Strategy.group ~order:Ls ~k:7) ~m:4));
  checkb "speeds length <> m" true
    (rejects (fun () ->
         Strategy.build
           (Strategy.uniform ~variant:Strategy.U_no_choice ~speeds:[| 1.0; 2.0 |])
           ~m:3));
  checkb "uniform group k > m" true
    (rejects (fun () ->
         Strategy.build
           (Strategy.uniform ~variant:(Strategy.U_group 5)
              ~speeds:[| 1.0; 1.0; 1.0 |])
           ~m:3));
  (* The repo's machine_groups supports non-divisor k (uneven groups, a
     documented extension) — build must accept it. *)
  checkb "non-divisor k accepted" true
    (Strategy.build (Strategy.group ~order:Ls ~k:2) ~m:5
     |> fun a -> a.Core.Two_phase.name = "LS-Group(k=2)");
  checkb "check mirrors build" true
    (Strategy.check (Strategy.group ~order:Ls ~k:7) ~m:4 <> Ok ()
    && Strategy.check (Strategy.group ~order:Ls ~k:2) ~m:5 = Ok ())

(* -------------------------- registry ------------------------------- *)

let registry_coverage () =
  checkb "non-empty" true (List.length Strategy.all >= 15);
  let keywords = List.map (fun e -> e.Strategy.keyword) Strategy.all in
  checki "keywords unique"
    (List.length keywords)
    (List.length (List.sort_uniq compare keywords));
  List.iter
    (fun e ->
      checkb (e.Strategy.keyword ^ " has a doc") true (e.Strategy.doc <> "");
      (* Example specs are valid at several m, build, and round-trip. *)
      List.iter
        (fun m ->
          let spec = e.Strategy.example ~m in
          checkb
            (Printf.sprintf "%s example valid at m=%d" e.Strategy.keyword m)
            true
            (Strategy.check spec ~m = Ok ());
          let algo = Strategy.build spec ~m in
          checks "name matches built algorithm" algo.Core.Two_phase.name
            (Strategy.name spec);
          checkb "example round-trips" true
            (Strategy.of_string (Strategy.to_string spec) = Ok spec))
        [ 1; 4; 8 ])
    Strategy.all

let registry_portfolio () =
  (* The derived portfolio reproduces the shape Scenarios hardcoded
     before the catalog: no replication, LS-Group at every proper
     divisor, one budgeted overlap, full replication. *)
  let specs = Strategy.default_portfolio ~m:6 in
  Alcotest.(check (list string))
    "m=6 portfolio"
    [ "lpt-no-choice"; "ls-group:2"; "ls-group:3"; "budgeted:3";
      "lpt-no-restriction" ]
    (List.map Strategy.to_string specs);
  let prime = Strategy.default_portfolio ~m:7 in
  Alcotest.(check (list string))
    "prime m has no group members"
    [ "lpt-no-choice"; "budgeted:3"; "lpt-no-restriction" ]
    (List.map Strategy.to_string prime);
  List.iter
    (fun spec -> checkb "member valid" true (Strategy.check spec ~m:6 = Ok ()))
    specs

(* --------------------- golden equivalence ------------------------- *)

(* The pre-refactor construction, frozen: every call site in
   lib/experiments and bin built algorithms with exactly these module
   entry points before the catalog existed. Strategy.build must agree
   bit for bit. *)
let inline_build spec =
  match spec with
  | Strategy.No_replication Strategy.Lpt -> Core.No_replication.lpt_no_choice
  | Strategy.No_replication Strategy.Ls -> Core.No_replication.ls_no_choice
  | Strategy.Full_replication Strategy.Lpt ->
      Core.Full_replication.lpt_no_restriction
  | Strategy.Full_replication Strategy.Ls ->
      Core.Full_replication.ls_no_restriction
  | Strategy.Group { order = Strategy.Ls; k } -> Core.Group_replication.ls_group ~k
  | Strategy.Group { order = Strategy.Lpt; k } ->
      Core.Group_replication.lpt_group ~k
  | Strategy.Budgeted k -> Core.Budgeted.uniform ~k
  | Strategy.Proportional fraction -> Core.Budgeted.proportional ~fraction
  | Strategy.Selective count -> Core.Selective.algorithm ~count
  | Strategy.Sabo delta -> Core.Sabo.algorithm ~delta
  | Strategy.Abo delta -> Core.Abo.algorithm ~delta
  | Strategy.Memory_budget budget -> Core.Memory_budget.algorithm ~budget
  | Strategy.Reliability { target; budget } ->
      Core.Reliability.algorithm ?budget ~target ()
  | Strategy.Uniform { variant = Strategy.U_no_choice; speeds } ->
      Core.Uniform.lpt_no_choice ~speeds
  | Strategy.Uniform { variant = Strategy.U_no_restriction; speeds } ->
      Core.Uniform.lpt_no_restriction ~speeds
  | Strategy.Uniform { variant = Strategy.U_group k; speeds } ->
      Core.Uniform.ls_group ~speeds ~k
  | Strategy.Speed_robust { k } -> Core.Speed_robust.algorithm ~k
  | Strategy.Zone_group k -> Core.Zone_placement.zone_group ~k
  | Strategy.Local_budget budget -> Core.Zone_placement.local_budget ~budget

let golden_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 6 in
    let* spec = spec_gen ~n ~m in
    let* alpha = float_range 1.0 2.5 in
    let* ests = array_size (return n) (float_range 0.1 10.0) in
    let* extreme = bool in
    let* seed = int_bound 1_000_000 in
    return (m, spec, alpha, ests, extreme, seed))

let golden_print (m, spec, alpha, ests, extreme, seed) =
  Printf.sprintf "m=%d spec=%s alpha=%.3f ests=[%s] extreme=%b seed=%d" m
    (Strategy.to_string spec) alpha
    (String.concat ";" (Array.to_list (Array.map string_of_float ests)))
    extreme seed

let same_schedule a b n =
  let rec go j =
    j >= n
    ||
    let ea = Schedule.entry a j and eb = Schedule.entry b j in
    ea.Schedule.machine = eb.Schedule.machine
    && ea.Schedule.start = eb.Schedule.start
    && ea.Schedule.finish = eb.Schedule.finish
    && go (j + 1)
  in
  go 0

let golden_equivalence =
  QCheck.Test.make ~count:300
    ~name:"Strategy.build = pre-refactor inline construction (bit-for-bit)"
    (QCheck.make ~print:golden_print golden_gen)
    (fun (m, spec, alpha, ests, extreme, seed) ->
      (* Unit sizes keep every generated memory budget (>= n) feasible. *)
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ests in
      let rng = Rng.create ~seed () in
      let realization =
        if extreme then Realization.extremes ~p_high:0.5 instance rng
        else Realization.uniform_factor instance rng
      in
      let via_spec = Strategy.build spec ~m in
      let inline = inline_build spec in
      let p1, s1 = Core.Two_phase.run_full via_spec instance realization in
      let p2, s2 = Core.Two_phase.run_full inline instance realization in
      via_spec.Core.Two_phase.name = inline.Core.Two_phase.name
      && Array.for_all2
           (fun a b -> Helpers.elements a = Helpers.elements b)
           (Core.Placement.sets p1) (Core.Placement.sets p2)
      && same_schedule s1 s2 (Instance.n instance))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "strategy"
    [
      ( "grammar",
        [
          QCheck_alcotest.to_alcotest round_trip;
          Alcotest.test_case "awkward floats" `Quick awkward_float_round_trip;
          Alcotest.test_case "negative cases" `Quick negative_cases;
          Alcotest.test_case "reliability errors show grammar" `Quick
            reliability_errors_show_grammar;
          Alcotest.test_case "unknown name lists grammar" `Quick
            unknown_name_lists_grammar;
          Alcotest.test_case "unknown name suggests" `Quick
            unknown_name_suggests;
          Alcotest.test_case "group alias" `Quick group_alias;
        ] );
      ( "validation",
        [
          Alcotest.test_case "smart constructors" `Quick smart_constructors_reject;
          Alcotest.test_case "build m checks" `Quick build_rejects_m_mismatch;
          Alcotest.test_case "no replication pins tasks" `Quick
            no_replication_pins_tasks;
          Alcotest.test_case "speed-robust constructor" `Quick
            speed_robust_constructor;
        ] );
      ( "registry",
        [
          Alcotest.test_case "coverage" `Quick registry_coverage;
          Alcotest.test_case "default portfolio" `Quick registry_portfolio;
        ] );
      ("golden", [ QCheck_alcotest.to_alcotest golden_equivalence ]);
    ]
