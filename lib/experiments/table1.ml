module Instance = Usched_model.Instance
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng

let formula_table () =
  Printf.printf
    "Guarantee formulas evaluated over a (m, alpha) grid. 'Th1 bound' is\n\
     the impossibility: no |M_j|=1 algorithm beats it.\n\n";
  let table =
    Table.create
      ~columns:
        [
          ("m", Table.Right);
          ("alpha", Table.Right);
          ("Th1 bound (|M_j|=1)", Table.Right);
          ("LPT-No Choice (Th2)", Table.Right);
          ("LPT-No Restr. (Th3)", Table.Right);
          ("Graham LS 2-1/m", Table.Right);
          ("LS-Group k=3 (Th4)", Table.Right);
        ]
  in
  List.iter
    (fun m ->
      List.iter
        (fun alpha ->
          Table.add_row table
            [
              string_of_int m;
              Table.cell_float ~decimals:1 alpha;
              Table.cell_float (Core.Guarantees.no_replication_lower_bound ~m ~alpha);
              Table.cell_float (Core.Guarantees.lpt_no_choice ~m ~alpha);
              Table.cell_float (Core.Guarantees.lpt_no_restriction ~m ~alpha);
              Table.cell_float (Core.Guarantees.list_scheduling ~m);
              Table.cell_float (Core.Guarantees.ls_group ~m ~k:3 ~alpha);
            ])
        [ 1.1; 1.5; 2.0 ])
    [ 6; 30; 210 ];
  print_string (Table.render table)

let measured_table config =
  Printf.printf
    "\nMeasured worst-case ratios (adversarial search on small instances,\n\
     exact optimum) vs. each algorithm's guarantee. m=4, alpha=1.5,\n\
     n in {8, 10, 12} over three workload families.\n\n";
  let m = 4 and alpha = 1.5 in
  let alpha_v = Uncertainty.alpha alpha in
  let specs =
    [
      Workload.Identical 1.0;
      Workload.Uniform { lo = 1.0; hi = 10.0 };
      Workload.Bimodal { p_long = 0.3; short_mean = 1.0; long_mean = 8.0 };
    ]
  in
  let instances =
    List.concat_map
      (fun n ->
        List.mapi
          (fun i spec ->
            let rng = Rng.create ~seed:(config.Runner.seed + (1000 * n) + i) () in
            Workload.generate spec ~n ~m ~alpha:alpha_v rng)
          specs)
      [ 8; 10; 12 ]
  in
  let algo spec = Runner.strategy config ~m spec in
  let algorithms =
    [
      ( algo Strategy.(No_replication Lpt),
        Core.Guarantees.lpt_no_choice ~m ~alpha );
      ( algo Strategy.(Full_replication Lpt),
        Core.Guarantees.full_replication ~m ~alpha );
      (algo Strategy.(Full_replication Ls), Core.Guarantees.list_scheduling ~m);
      ( algo Strategy.(Group { order = Ls; k = 2 }),
        Core.Guarantees.ls_group ~m ~k:2 ~alpha );
    ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("guarantee", Table.Right);
          ("worst measured", Table.Right);
          ("within guarantee", Table.Left);
        ]
  in
  List.iter
    (fun (algo, guarantee) ->
      let worst =
        List.fold_left
          (fun acc instance ->
            Float.max acc (Runner.adversarial_ratio config algo instance))
          neg_infinity instances
      in
      Table.add_row table
        [
          algo.Core.Two_phase.name;
          Table.cell_float guarantee;
          Table.cell_float worst;
          (if worst <= guarantee +. 1e-9 then "yes" else "NO (!)");
        ])
    algorithms;
  print_string (Table.render table);
  let th1 = Core.Guarantees.no_replication_lower_bound ~m ~alpha in
  Printf.printf
    "\nTheorem 1 impossibility at (m=%d, alpha=%g): %.4f -- LPT-No Choice's\n\
     guarantee (%.4f) must lie above it, and replication strategies may\n\
     drop below it (that is the point of the paper).\n"
    m alpha th1
    (Core.Guarantees.lpt_no_choice ~m ~alpha)

let run config =
  Runner.print_section "Table 1 -- Summary of the replication bound model";
  formula_table ();
  measured_table config
