(* Tests for the closed-form guarantee formulas — each theorem's formula
   is checked against hand-computed values and its structural properties
   (limits, monotonicity, consistency between strategies). *)

module G = Usched_core.Guarantees

let close = Alcotest.(check (float 1e-9))
let closeish = Alcotest.(check (float 1e-6))
let checkb = Alcotest.(check bool)

(* --- Theorem 1: lower bound --- *)

let th1_values () =
  (* alpha=2, m=6: 4*6/(4+5) = 24/9. *)
  close "alpha=2,m=6" (24.0 /. 9.0) (G.no_replication_lower_bound ~m:6 ~alpha:2.0);
  (* alpha=1: 1*m/(1+m-1) = 1 — no uncertainty, no penalty. *)
  close "alpha=1 collapses" 1.0 (G.no_replication_lower_bound ~m:10 ~alpha:1.0)

let th1_limit () =
  close "corollary: limit alpha^2" 4.0 (G.no_replication_lower_bound_limit ~alpha:2.0);
  (* Large m approaches the limit from below. *)
  let near = G.no_replication_lower_bound ~m:100_000_000 ~alpha:2.0 in
  checkb "below limit" true (near < 4.0);
  closeish "approaches limit" 4.0 near

(* --- Theorem 2: LPT-No Choice --- *)

let th2_values () =
  (* alpha=2, m=6: 2*4*6/(8+5) = 48/13. *)
  close "alpha=2,m=6" (48.0 /. 13.0) (G.lpt_no_choice ~m:6 ~alpha:2.0)

let th2_dominates_th1 () =
  (* An algorithm's guarantee can never undercut the impossibility. *)
  List.iter
    (fun m ->
      List.iter
        (fun alpha ->
          checkb "guarantee >= lower bound" true
            (G.lpt_no_choice ~m ~alpha
            >= G.no_replication_lower_bound ~m ~alpha -. 1e-12))
        [ 1.0; 1.1; 1.5; 2.0; 4.0 ])
    [ 1; 2; 5; 50; 1000 ]

(* --- Theorem 3: LPT-No Restriction --- *)

let th3_values () =
  (* alpha=2, m=4: 1 + (3/4)*2 = 2.5. *)
  close "alpha=2,m=4" 2.5 (G.lpt_no_restriction ~m:4 ~alpha:2.0);
  (* alpha=1, large m: 1 + (m-1)/2m -> 1.5 (the LPT-as-LS online bound). *)
  close "alpha=1,m=4" 1.375 (G.lpt_no_restriction ~m:4 ~alpha:1.0)

let th3_combined_with_graham () =
  (* For alpha^2 < 2 the Theorem-3 term wins; above, Graham's 2-1/m. *)
  let m = 10 in
  close "small alpha keeps Th3"
    (G.lpt_no_restriction ~m ~alpha:1.1)
    (G.full_replication ~m ~alpha:1.1);
  close "large alpha falls back to Graham"
    (G.list_scheduling ~m)
    (G.full_replication ~m ~alpha:2.0);
  (* Crossover at alpha^2 = 2 exactly (both equal 2 - 1/m). *)
  closeish "crossover" (G.list_scheduling ~m)
    (G.lpt_no_restriction ~m ~alpha:(sqrt 2.0))

(* --- Theorem 4: LS-Group --- *)

let th4_values () =
  (* k=1: 1*a2/a2*(1+0) + (m-1)/m = 1 + (m-1)/m — the full-replication
     LS-style bound. *)
  close "k=1" (1.0 +. (5.0 /. 6.0)) (G.ls_group ~m:6 ~k:1 ~alpha:2.0);
  (* k=m, alpha=1: m/(m)* (1+(m-1)/m) + 0 = 1 + (m-1)/m = 2 - 1/m. *)
  close "k=m, alpha=1 is Graham" (2.0 -. (1.0 /. 6.0)) (G.ls_group ~m:6 ~k:6 ~alpha:1.0)

let th4_monotone_in_k () =
  (* More groups = fewer replicas = weaker guarantee (for alpha > 1). *)
  let m = 210 and alpha = 2.0 in
  let ks = [ 1; 2; 3; 5; 6; 7; 10; 14; 15; 21; 30; 35; 42; 70; 105; 210 ] in
  let ratios = List.map (fun k -> G.ls_group ~m ~k ~alpha) ks in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  checkb "monotone" true (increasing ratios)

let th4_beats_no_choice_with_few_replicas () =
  (* The paper's headline: at alpha=2, m=210, LS-Group with ~3 replicas
     already beats LPT-No Choice's guarantee. *)
  let m = 210 and alpha = 2.0 in
  let no_choice = G.lpt_no_choice ~m ~alpha in
  checkb "k=70 (3 replicas) beats strategy 1" true
    (G.ls_group ~m ~k:70 ~alpha < no_choice)

let classical_bounds () =
  close "LS" 1.75 (G.list_scheduling ~m:4);
  close "LPT" (4.0 /. 3.0 -. 1.0 /. 12.0) (G.lpt_offline ~m:4)

(* --- Theorems 5-8: memory-aware --- *)

let sabo_values () =
  close "Th5" (2.0 *. 4.0 *. 1.5) (G.sabo_makespan ~alpha:2.0 ~delta:1.0 ~rho1:1.5);
  close "Th6" 3.0 (G.sabo_memory ~delta:1.0 ~rho2:1.5)

let abo_values () =
  close "Th7"
    (2.0 -. 0.2 +. (1.0 *. 4.0 *. 1.5))
    (G.abo_makespan ~m:5 ~alpha:2.0 ~delta:1.0 ~rho1:1.5);
  close "Th8" ((1.0 +. 5.0) *. 1.5) (G.abo_memory ~m:5 ~delta:1.0 ~rho2:1.5)

let sabo_tradeoff_shape () =
  (* Larger delta: worse makespan, better memory. *)
  checkb "makespan grows" true
    (G.sabo_makespan ~alpha:1.5 ~delta:2.0 ~rho1:1.0
    > G.sabo_makespan ~alpha:1.5 ~delta:0.5 ~rho1:1.0);
  checkb "memory shrinks" true
    (G.sabo_memory ~delta:2.0 ~rho2:1.0 < G.sabo_memory ~delta:0.5 ~rho2:1.0)

let crossover_rule () =
  checkb "alpha*rho >= 2: ABO wins" true
    (G.abo_beats_sabo_on_makespan ~alpha:2.0 ~rho1:1.0);
  checkb "alpha*rho < 2: no uniform winner" false
    (G.abo_beats_sabo_on_makespan ~alpha:1.2 ~rho1:1.0);
  (* Check the rule's claim numerically on its positive side: at
     alpha*rho1 >= 2, ABO's makespan guarantee is lower for every
     delta. *)
  let alpha = 2.0 and rho1 = 1.1 and m = 5 in
  List.iter
    (fun delta ->
      checkb "ABO <= SABO on makespan" true
        (G.abo_makespan ~m ~alpha ~delta ~rho1
        <= G.sabo_makespan ~alpha ~delta ~rho1 +. 1e-9))
    [ 0.1; 0.5; 1.0; 2.0; 10.0 ]

let sabo_dominates_abo_on_memory () =
  List.iter
    (fun delta ->
      checkb "SABO memory <= ABO memory" true
        (G.sabo_memory ~delta ~rho2:1.3 <= G.abo_memory ~m:5 ~delta ~rho2:1.3 +. 1e-9))
    [ 0.1; 0.5; 1.0; 2.0; 10.0 ]

let impossibility_hyperbola () =
  close "x=2 -> y=2" 2.0 (G.tradeoff_impossibility ~makespan_ratio:2.0);
  close "x=1.5 -> y=3" 3.0 (G.tradeoff_impossibility ~makespan_ratio:1.5);
  (* SBO with rho=1 is exactly on the hyperbola: (1+d)(1+1/d) point. *)
  let delta = 0.7 in
  close "SBO tightness"
    (G.sabo_memory ~delta ~rho2:1.0)
    (G.tradeoff_impossibility
       ~makespan_ratio:(G.sabo_makespan ~alpha:1.0 ~delta ~rho1:1.0))

let domain_checks () =
  Alcotest.check_raises "bad m" (Invalid_argument "Guarantees: m must be >= 1")
    (fun () -> ignore (G.list_scheduling ~m:0));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Guarantees: alpha must be >= 1")
    (fun () -> ignore (G.lpt_no_choice ~m:2 ~alpha:0.5));
  Alcotest.check_raises "bad delta" (Invalid_argument "Guarantees: delta must be > 0")
    (fun () -> ignore (G.sabo_memory ~delta:0.0 ~rho2:1.0));
  Alcotest.check_raises "bad k" (Invalid_argument "Guarantees.ls_group: need 1 <= k <= m")
    (fun () -> ignore (G.ls_group ~m:4 ~k:5 ~alpha:1.5));
  Alcotest.check_raises "bad ratio"
    (Invalid_argument "Guarantees.tradeoff_impossibility: ratio must be > 1")
    (fun () -> ignore (G.tradeoff_impossibility ~makespan_ratio:1.0))

let prop_all_guarantees_at_least_one =
  QCheck.Test.make ~name:"every competitive ratio is >= 1" ~count:300
    QCheck.(pair (int_range 1 500) (float_range 1.0 4.0))
    (fun (m, alpha) ->
      G.no_replication_lower_bound ~m ~alpha >= 1.0 -. 1e-12
      && G.lpt_no_choice ~m ~alpha >= 1.0 -. 1e-12
      && G.lpt_no_restriction ~m ~alpha >= 1.0 -. 1e-12
      && G.list_scheduling ~m >= 1.0
      && G.ls_group ~m ~k:1 ~alpha >= 1.0 -. 1e-12
      && G.ls_group ~m ~k:m ~alpha >= 1.0 -. 1e-12)

let prop_monotone_in_alpha =
  QCheck.Test.make ~name:"guarantees weaken as alpha grows" ~count:300
    QCheck.(triple (int_range 2 100) (float_range 1.0 3.0) (float_range 0.01 1.0))
    (fun (m, alpha, bump) ->
      let alpha' = alpha +. bump in
      G.lpt_no_choice ~m ~alpha <= G.lpt_no_choice ~m ~alpha:alpha' +. 1e-12
      && G.lpt_no_restriction ~m ~alpha
         <= G.lpt_no_restriction ~m ~alpha:alpha' +. 1e-12
      && G.no_replication_lower_bound ~m ~alpha
         <= G.no_replication_lower_bound ~m ~alpha:alpha' +. 1e-12)

let () =
  Alcotest.run "guarantees"
    [
      ( "replication bound model",
        [
          Alcotest.test_case "Th1 values" `Quick th1_values;
          Alcotest.test_case "Th1 limit" `Quick th1_limit;
          Alcotest.test_case "Th2 values" `Quick th2_values;
          Alcotest.test_case "Th2 above Th1" `Quick th2_dominates_th1;
          Alcotest.test_case "Th3 values" `Quick th3_values;
          Alcotest.test_case "Th3 + Graham" `Quick th3_combined_with_graham;
          Alcotest.test_case "Th4 values" `Quick th4_values;
          Alcotest.test_case "Th4 monotone in k" `Quick th4_monotone_in_k;
          Alcotest.test_case "Th4 beats strategy 1" `Quick
            th4_beats_no_choice_with_few_replicas;
          Alcotest.test_case "classical bounds" `Quick classical_bounds;
        ] );
      ( "memory-aware model",
        [
          Alcotest.test_case "SABO values" `Quick sabo_values;
          Alcotest.test_case "ABO values" `Quick abo_values;
          Alcotest.test_case "SABO tradeoff shape" `Quick sabo_tradeoff_shape;
          Alcotest.test_case "crossover rule" `Quick crossover_rule;
          Alcotest.test_case "SABO memory dominance" `Quick
            sabo_dominates_abo_on_memory;
          Alcotest.test_case "impossibility hyperbola" `Quick impossibility_hyperbola;
        ] );
      ( "domains and properties",
        Alcotest.test_case "domain checks" `Quick domain_checks
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_all_guarantees_at_least_one; prop_monotone_in_alpha ] );
    ]
