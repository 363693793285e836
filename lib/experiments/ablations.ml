module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary

let phase2_order config =
  Runner.print_section "Ablation -- LS vs LPT orders in group replication";
  let m = 24 and alpha = 1.5 and k = 4 in
  let table =
    Table.create
      ~columns:
        [
          ("workload", Table.Left);
          ("LS-Group mean ratio", Table.Right);
          ("LPT-Group mean ratio", Table.Right);
          ("LPT order wins", Table.Left);
        ]
  in
  List.iter
    (fun (name, spec) ->
      let sweep algo =
        Runner.random_sweep config ~algo ~spec
          ~realize:(fun instance rng -> Realization.log_uniform_factor instance rng)
          ~n:(6 * m) ~m ~alpha
      in
      let ls =
        sweep (Runner.strategy config ~m Strategy.(Group { order = Ls; k }))
      in
      let lpt =
        sweep (Runner.strategy config ~m Strategy.(Group { order = Lpt; k }))
      in
      let ls_mean = Summary.mean ls.Runner.summary in
      let lpt_mean = Summary.mean lpt.Runner.summary in
      Table.add_row table
        [
          name;
          Table.cell_float ls_mean;
          Table.cell_float lpt_mean;
          (if lpt_mean < ls_mean -. 1e-9 then "yes" else "no");
        ])
    (Workload.standard_suite ~m);
  print_string (Table.render table);
  Printf.printf
    "(The paper conjectures LPT phases would not improve the *guarantee*;\n\
     in-practice averages may still favor LPT ordering.)\n"

let adversary_strength config =
  Runner.print_section "Ablation -- adversary strength vs LPT-No Choice";
  let m = 3 and alpha = 2.0 and n = 9 in
  let instance =
    Workload.generate (Workload.Identical 1.0) ~n ~m
      ~alpha:(Uncertainty.alpha alpha)
      (Rng.create ~seed:config.Runner.seed ())
  in
  let algo = Runner.strategy config ~m Strategy.(No_replication Lpt) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let run realization = algo.Core.Two_phase.phase2 instance placement realization in
  let opt actuals = fst (Runner.opt_estimate config ~m actuals) in
  let ratio_of realization = Core.Adversary.ratio ~run ~opt realization in
  let theorem1 = ratio_of (Core.Adversary.theorem1 instance placement) in
  let greedy = ratio_of (Core.Adversary.greedy_flip ~run ~opt instance) in
  let _, exhaustive = Core.Adversary.exhaustive ~run ~opt instance in
  let table =
    Table.create
      ~columns:[ ("adversary", Table.Left); ("achieved ratio", Table.Right) ]
  in
  Table.add_row table [ "Theorem-1 (inflate most loaded)"; Table.cell_float theorem1 ];
  Table.add_row table [ "greedy flips"; Table.cell_float greedy ];
  Table.add_row table [ "exhaustive (2^n extremes)"; Table.cell_float exhaustive ];
  print_string (Table.render table);
  Printf.printf
    "Guarantee (Th2) %.4f must dominate all rows; Theorem-1 bound %.4f is\n\
     what the best adversary approaches as instances grow.\n"
    (Core.Guarantees.lpt_no_choice ~m ~alpha)
    (Core.Guarantees.no_replication_lower_bound ~m ~alpha)

let selective_replication config =
  Runner.print_section "Ablation -- selective replication of critical tasks";
  let m = 5 and alpha = 2.0 and n = 15 in
  (* Against oblivious random noise every variant is near-optimal; the
     interesting curve is against adversaries that exploit the
     placement. Kept small so the optimum is exact. *)
  let instances =
    List.map
      (fun i ->
        Workload.generate
          (Workload.Bimodal { p_long = 0.2; short_mean = 1.0; long_mean = 20.0 })
          ~n ~m
          ~alpha:(Uncertainty.alpha alpha)
          (Rng.create ~seed:(config.Runner.seed + i) ()))
      [ 0; 1; 2 ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("replicated tasks", Table.Right);
          ("worst adversarial ratio", Table.Right);
          ("memory overhead vs none", Table.Right);
        ]
  in
  List.iter
    (fun count ->
      let algo = Runner.strategy config ~m (Strategy.Selective count) in
      let worst =
        List.fold_left
          (fun acc instance ->
            Float.max acc (Runner.adversarial_ratio config algo instance))
          neg_infinity instances
      in
      let placement = Core.Selective.placement ~count (List.hd instances) in
      let overhead =
        float_of_int (Core.Placement.total_replicas placement) /. float_of_int n
      in
      Table.add_row table
        [
          string_of_int count;
          Table.cell_float worst;
          Printf.sprintf "%.2fx" overhead;
        ])
    [ 0; 1; 2; 3; 5; 8; 15 ];
  print_string (Table.render table);
  Printf.printf
    "(Replicating only the few largest tasks blunts the adversary at a\n\
     fraction of full replication's memory — the paper's future-work\n\
     intuition.)\n"

let correlated_errors config =
  Runner.print_section "Ablation -- error structure: iid vs clustered vs bias";
  let m = 8 and alpha = 2.0 and n = 48 in
  let models =
    [
      ("iid log-uniform", fun instance rng -> Realization.log_uniform_factor instance rng);
      ("clustered (4 groups)", fun instance rng -> Realization.clustered ~clusters:4 instance rng);
      ("clustered (2 groups)", fun instance rng -> Realization.clustered ~clusters:2 instance rng);
      ( "systematic bias x1.6",
        fun instance _rng -> Realization.biased ~factor:1.6 instance );
    ]
  in
  let strategies =
    [
      ("no replication", Runner.strategy config ~m Strategy.(No_replication Lpt));
      ( "LS-Group k=4",
        Runner.strategy config ~m Strategy.(Group { order = Ls; k = 4 }) );
      ( "full replication",
        Runner.strategy config ~m Strategy.(Full_replication Lpt) );
    ]
  in
  let table =
    Table.create
      ~columns:
        ([ ("error model", Table.Left) ]
        @ List.map (fun (name, _) -> (name, Table.Right)) strategies)
  in
  List.iter
    (fun (model_name, realize) ->
      let cells =
        List.map
          (fun (_, algo) ->
            let sweep =
              Runner.random_sweep config ~algo
                ~spec:(Workload.Uniform { lo = 1.0; hi = 10.0 })
                ~realize ~n ~m ~alpha
            in
            Table.cell_float (Summary.mean sweep.Runner.summary))
          strategies
      in
      Table.add_row table (model_name :: cells))
    models;
  print_string (Table.render table);
  Printf.printf
    "(Mean ratio vs lower bound. Systematic bias rescales the schedule\n\
     and the optimum alike, so its row equals the noise-free ratio — the\n\
     model only punishes *relative* misestimation. Correlation moves the\n\
     iid row toward the bias row: the fewer independent factors, the\n\
     closer the noise is to a harmless global rescaling. Replication's\n\
     advantage is largest under fully independent errors.)\n"
