(* Tests for the domain pool, and the paired-seed determinism contract
   of every parallel entry point built on it: sharding work over N
   domains must be bit-identical to running it on 1. *)

module Pool = Usched_parallel.Pool
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Failure = Usched_model.Failure
module Speed_band = Usched_model.Speed_band
module Core = Usched_core
module Rng = Usched_prng.Rng

(* One strategy's evaluation: a singleton portfolio. *)
let evaluate ?domains algo instance scenarios =
  Core.Scenarios.select ?domains Core.Scenarios.Minimize_worst ~portfolio:[ algo ] instance
    scenarios

let checkb = Alcotest.(check bool)

let recommended_positive () =
  checkb "at least one domain" true (Pool.recommended_domains () >= 1)

let init_matches_sequential () =
  let f i = (i * i) + 1 in
  let expected = Array.init 1000 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expected
        (Pool.parallel_init ~domains 1000 f))
    [ 1; 2; 4 ]

let empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_init ~domains:4 0 (fun i -> i));
  Alcotest.(check (array int)) "singleton" [| 0 |]
    (Pool.parallel_init ~domains:4 1 (fun i -> i))

let propagates_exceptions () =
  checkb "raises" true
    (try
       ignore
         (Pool.parallel_init ~domains:4 100 (fun i ->
              if i = 57 then failwith "boom" else i));
       false
     with Failure _ -> true)

let invalid_inputs () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Pool.parallel_init: domains < 1") (fun () ->
      ignore (Pool.parallel_init ~domains:0 1 (fun i -> i)));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Pool.parallel_init: negative n") (fun () ->
      ignore (Pool.parallel_init ~domains:1 (-1) (fun i -> i)))

(* ------------------ N-domain = 1-domain equality -------------------- *)

let domain_counts = [ 2; 3; 5 ]

let det_gen =
  QCheck.Gen.(
    let* n = int_range 4 16 in
    let* m = int_range 2 6 in
    let* seed = int_bound 1_000_000 in
    return (n, m, seed))

let det_scenario =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    det_gen

let build_instance (n, m, seed) =
  let rng = Rng.create ~seed () in
  let instance =
    Workload.generate
      (Workload.Uniform { lo = 1.0; hi = 10.0 })
      ~n ~m
      ~alpha:(Uncertainty.alpha 1.5)
      rng
  in
  (instance, rng)

(* Monte-Carlo survival: trial generators are pre-split sequentially,
   so sharding the draws cannot change a single bit of the estimate or
   its bootstrap interval. *)
let prop_survival_domain_independent =
  QCheck.Test.make ~name:"monte_carlo_survival: N domains = 1 domain"
    ~count:60 det_scenario (fun ((n, m, seed) as s) ->
      let _, rng = build_instance s in
      let profile =
        Failure.make (Array.init m (fun _ -> Rng.float_range rng ~lo:0.02 ~hi:0.3))
      in
      let placement =
        Core.Placement.of_sets ~m
          (Array.init n (fun j ->
               Bitset.of_list m [ j mod m; (j + 1) mod m ]))
      in
      let run domains =
        Usched_experiments.Reliability_sweep.monte_carlo_survival ~trials:200
          ~domains ~seed ~profile placement
      in
      let base = run 1 in
      List.for_all (fun d -> run d = base) domain_counts)

(* Exhaustive corner adversary: corners are measured in parallel but
   folded sequentially in mask order, so the reported worst corner is
   the same at any domain count. *)
let prop_adversary_domain_independent =
  QCheck.Test.make ~name:"Speed_adversary.exhaustive: N domains = 1 domain"
    ~count:60 det_scenario (fun (_, m, seed) ->
      let rng = Rng.create ~seed () in
      let band =
        Speed_band.make
          (Array.init m (fun _ ->
               let lo = Rng.float_range rng ~lo:0.3 ~hi:1.0 in
               (lo, lo +. Rng.float_range rng ~lo:0.0 ~hi:1.0)))
      in
      (* Any deterministic measurement closes the loop; a weighted sum
         with a floor keeps distinct corners at distinct values. *)
      let run speeds =
        Array.fold_left (fun acc s -> (2.0 *. acc) +. s) 0.0 speeds
      in
      let base = Core.Speed_adversary.exhaustive ~domains:1 ~run band in
      (* A loose but valid bound: the pruned search replays corners in
         rounds of [d], and still reports full enumeration's corner. *)
      let bound speeds = run speeds +. Array.fold_left ( +. ) 0.0 speeds in
      List.for_all
        (fun d ->
          Core.Speed_adversary.exhaustive ~domains:d ~run band = base
          && Core.Speed_adversary.exhaustive ~domains:d ~bound ~run band = base)
        (1 :: domain_counts))

(* Scenario evaluation: each scenario's makespan is an independent pure
   replay, so the evaluation record is identical at any domain count. *)
let prop_scenarios_domain_independent =
  QCheck.Test.make ~name:"Scenarios.evaluate: N domains = 1 domain" ~count:60
    det_scenario (fun s ->
      let instance, rng = build_instance s in
      let scenarios =
        Core.Scenarios.sample ~count:12
          ~realize:(fun i r -> Realization.uniform_factor i r)
          ~rng instance
      in
      let algo =
        Core.Strategy.(build (Full_replication Lpt) ~m:(Instance.m instance))
      in
      let base = evaluate ~domains:1 algo instance scenarios in
      List.for_all
        (fun d ->
          let e = evaluate ~domains:d algo instance scenarios in
          e.Core.Scenarios.worst = base.Core.Scenarios.worst
          && e.Core.Scenarios.mean = base.Core.Scenarios.mean
          && e.Core.Scenarios.per_scenario = base.Core.Scenarios.per_scenario)
        domain_counts)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "recommended" `Quick recommended_positive;
          Alcotest.test_case "init correct" `Quick init_matches_sequential;
          Alcotest.test_case "edge sizes" `Quick empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick propagates_exceptions;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_survival_domain_independent;
            prop_adversary_domain_independent;
            prop_scenarios_domain_independent;
          ] );
    ]
