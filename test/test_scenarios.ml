(* Tests for scenario-based robust selection. *)

module Core = Usched_core
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Rng = Usched_prng.Rng

(* One strategy's evaluation: a singleton portfolio. *)
let evaluate ?domains algo instance scenarios =
  Core.Scenarios.select ?domains Core.Scenarios.Minimize_worst ~portfolio:[ algo ] instance
    scenarios

let checkb = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

let instance () =
  Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 2.0)
    [| 8.0; 7.0; 6.0; 5.0; 4.0; 3.0; 2.0; 2.0; 1.0; 1.0 |]

let realize instance rng = Realization.extremes ~p_high:0.3 instance rng

let scenarios ?(count = 12) seed =
  Core.Scenarios.sample ~count ~realize ~rng:(Rng.create ~seed ()) (instance ())

(* A catalog algorithm for [instance ()]'s four machines. *)
let algo spec = Core.Strategy.build spec ~m:4

let default_portfolio ~m =
  List.map (fun spec -> Core.Strategy.build spec ~m) (Core.Strategy.default_portfolio ~m)

let sample_counts () =
  Alcotest.(check int) "count" 12 (List.length (scenarios 1));
  checkb "count < 1 rejected" true
    (try
       ignore
         (Core.Scenarios.sample ~count:0 ~realize ~rng:(Rng.create ()) (instance ()));
       false
     with Invalid_argument _ -> true)

let evaluate_consistency () =
  let e =
    evaluate (algo (Full_replication Lpt)) (instance ())
      (scenarios 2)
  in
  Alcotest.(check int) "one makespan per scenario" 12
    (Array.length e.Core.Scenarios.per_scenario);
  close "worst is max"
    (Array.fold_left Float.max neg_infinity e.Core.Scenarios.per_scenario)
    e.Core.Scenarios.worst;
  close "mean is mean"
    (Array.fold_left ( +. ) 0.0 e.Core.Scenarios.per_scenario /. 12.0)
    e.Core.Scenarios.mean;
  checkb "worst >= mean" true (e.Core.Scenarios.worst >= e.Core.Scenarios.mean)

let evaluation_commits_phase1_once () =
  (* Deterministic phase 1: two evaluations agree exactly. *)
  let s = scenarios 3 in
  let a = evaluate (algo (No_replication Lpt)) (instance ()) s in
  let b = evaluate (algo (No_replication Lpt)) (instance ()) s in
  Alcotest.(check (array (float 0.0))) "reproducible"
    a.Core.Scenarios.per_scenario b.Core.Scenarios.per_scenario

let select_picks_best () =
  let s = scenarios 4 in
  let portfolio = [ algo (No_replication Lpt); algo (Full_replication Lpt) ] in
  let chosen =
    Core.Scenarios.select Core.Scenarios.Minimize_worst ~portfolio (instance ()) s
  in
  (* Whatever is chosen must weakly beat every member on the criterion. *)
  List.iter
    (fun algo ->
      let e = evaluate algo (instance ()) s in
      checkb "chosen is minimal" true
        (chosen.Core.Scenarios.worst <= e.Core.Scenarios.worst +. 1e-9))
    portfolio

let select_mean_criterion () =
  let s = scenarios 5 in
  let portfolio = default_portfolio ~m:4 in
  let chosen =
    Core.Scenarios.select Core.Scenarios.Minimize_mean ~portfolio (instance ()) s
  in
  List.iter
    (fun algo ->
      let e = evaluate algo (instance ()) s in
      checkb "chosen minimizes mean" true
        (chosen.Core.Scenarios.mean <= e.Core.Scenarios.mean +. 1e-9))
    portfolio

let select_rejects_degenerate () =
  checkb "empty portfolio" true
    (try
       ignore
         (Core.Scenarios.select Core.Scenarios.Minimize_worst ~portfolio:[]
            (instance ()) (scenarios 6));
       false
     with Invalid_argument _ -> true);
  checkb "empty scenarios" true
    (try
       ignore
         (evaluate (algo (No_replication Lpt)) (instance ())
            []);
       false
     with Invalid_argument _ -> true)

let default_portfolio_contents () =
  let portfolio = default_portfolio ~m:6 in
  (* no-repl + groups k in {2, 3} + budgeted + full = 5 members. *)
  Alcotest.(check int) "size" 5 (List.length portfolio);
  checkb "starts with no replication" true
    ((List.hd portfolio).Core.Two_phase.name = "LPT-No Choice")

let default_portfolio_matches_registry () =
  (* The portfolio is exactly the registry derivation built at m, member
     by member, and every member's spec string parses back. *)
  List.iter
    (fun m ->
      let specs = Core.Strategy.default_portfolio ~m in
      Alcotest.(check (list string))
        (Printf.sprintf "names at m=%d" m)
        (List.map Core.Strategy.name specs)
        (List.map (fun a -> a.Core.Two_phase.name) (default_portfolio ~m));
      List.iter
        (fun spec ->
          checkb "spec string parses back" true
            (Core.Strategy.of_string (Core.Strategy.to_string spec) = Ok spec))
        specs)
    [ 2; 4; 6; 7; 12 ]

let select_winner_stable_across_refactor () =
  (* Fixed-seed selection must pick the same winner the pre-refactor
     hardcoded portfolio produced: the members (and their order) are
     unchanged, so the selected algorithm's identity is pinned here. *)
  let s = scenarios 7 in
  let portfolio = default_portfolio ~m:4 in
  let old_style =
    List.map algo
      Core.Strategy.
        [
          No_replication Lpt;
          Group { order = Ls; k = 2 };
          Budgeted 2;
          Full_replication Lpt;
        ]
  in
  Alcotest.(check (list string))
    "same members as the pre-refactor list"
    (List.map (fun a -> a.Core.Two_phase.name) old_style)
    (List.map (fun a -> a.Core.Two_phase.name) portfolio);
  List.iter
    (fun criterion ->
      let now =
        Core.Scenarios.select criterion ~portfolio (instance ()) s
      in
      let before =
        Core.Scenarios.select criterion ~portfolio:old_style (instance ()) s
      in
      Alcotest.(check string)
        "same winner"
        before.Core.Scenarios.algorithm.Core.Two_phase.name
        now.Core.Scenarios.algorithm.Core.Two_phase.name;
      close "same worst" before.Core.Scenarios.worst now.Core.Scenarios.worst;
      close "same mean" before.Core.Scenarios.mean now.Core.Scenarios.mean)
    [ Core.Scenarios.Minimize_worst; Core.Scenarios.Minimize_mean ]

let () =
  Alcotest.run "scenarios"
    [
      ( "unit",
        [
          Alcotest.test_case "sampling" `Quick sample_counts;
          Alcotest.test_case "evaluation" `Quick evaluate_consistency;
          Alcotest.test_case "reproducible" `Quick evaluation_commits_phase1_once;
          Alcotest.test_case "select worst-case" `Quick select_picks_best;
          Alcotest.test_case "select mean" `Quick select_mean_criterion;
          Alcotest.test_case "degenerate inputs" `Quick select_rejects_degenerate;
          Alcotest.test_case "default portfolio" `Quick default_portfolio_contents;
          Alcotest.test_case "portfolio matches registry" `Quick
            default_portfolio_matches_registry;
          Alcotest.test_case "select winner stable" `Quick
            select_winner_stable_across_refactor;
        ] );
    ]
