module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Plot = Usched_report.Ascii_plot

let divisors n =
  List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

let guarantee_series ~m ~alpha =
  divisors m
  |> List.map (fun k -> (m / k, Core.Guarantees.ls_group ~m ~k ~alpha))
  |> List.sort (fun (ra, _) (rb, _) -> Int.compare ra rb)

let measured_series config ~algo_of_replication ~m ~alpha ~replications =
  List.map
    (fun replication ->
      let sweep =
        Runner.random_sweep config
          ~algo:(algo_of_replication replication)
          ~spec:(Workload.Uniform { lo = 1.0; hi = 100.0 })
          ~realize:(fun instance rng ->
            Realization.extremes ~p_high:0.3 instance rng)
          ~n:(4 * m) ~m ~alpha
      in
      (replication, sweep.Runner.worst))
    replications

let one_alpha config ~m ~alpha =
  Printf.printf "\n--- m=%d, alpha=%g ---\n" m alpha;
  let guarantees = guarantee_series ~m ~alpha in
  let lpt_nc = Core.Guarantees.lpt_no_choice ~m ~alpha in
  let th1 = Core.Guarantees.no_replication_lower_bound ~m ~alpha in
  let lpt_nr = Core.Guarantees.full_replication ~m ~alpha in
  let replications = [ 1; 3; 10; 42; 210 ] in
  let measured =
    measured_series config
      ~algo_of_replication:(fun replication ->
        Runner.strategy config ~m
          Strategy.(Group { order = Ls; k = m / replication }))
      ~m ~alpha ~replications
  in
  (* Extension series: overlapping least-loaded sets at the same
     replica budget (no guarantee from the paper, measured only). *)
  let measured_budgeted =
    measured_series config
      ~algo_of_replication:(fun replication ->
        Runner.strategy config ~m (Strategy.Budgeted replication))
      ~m ~alpha ~replications
  in
  let measured_column ?csv title series =
    let value replication format =
      match List.assoc_opt replication series with
      | Some v -> format v
      | None -> ""
    in
    Runner.column title
      ?csv:
        (Option.map
           (fun name -> [ (name, fun (r, _) -> value r Runner.csv_float) ])
           csv)
      (fun (r, _) -> value r (fun v -> Table.cell_float v))
  in
  Runner.report config
    ~csv:(Printf.sprintf "fig3_m%d_alpha%g" m alpha)
    Runner.
      [
        text ~align:Right ~csv:"replication" "replication |M_j|"
          (fun (replication, _) -> string_of_int replication);
        text ~align:Right ~csv:"groups_k" "groups k" (fun (replication, _) ->
            string_of_int (m / replication));
        float ~csv:"guarantee" "LS-Group guarantee" snd;
        measured_column ~csv:"measured_worst" "measured worst (rand)" measured;
        measured_column "budgeted worst (rand)" measured_budgeted;
      ]
    guarantees;
  Printf.printf
    "Reference points: Th1 impossibility at replication 1: %.4f;\n\
     LPT-No Choice guarantee: %.4f; LPT-No Restriction (replication %d): %.4f.\n"
    th1 lpt_nc m lpt_nr;
  let to_points l = Array.of_list (List.map (fun (x, y) -> (float_of_int x, y)) l) in
  print_string
    (Plot.plot ~width:64 ~height:18 ~x_label:"replicas per task (log-ish axis: raw)"
       ~y_label:"competitive ratio"
       ~title:(Printf.sprintf "Figure 3, m=%d, alpha=%g" m alpha)
       [
         { Plot.label = "LS-Group guarantee"; glyph = '*'; points = to_points guarantees };
         {
           Plot.label = "LPT-No Choice guarantee (replication 1)";
           glyph = 'o';
           points = [| (1.0, lpt_nc) |];
         };
         {
           Plot.label = "Theorem 1 impossibility (replication 1)";
           glyph = 'x';
           points = [| (1.0, th1) |];
         };
         {
           Plot.label = "LPT-No Restriction (replication m)";
           glyph = '+';
           points = [| (float_of_int m, lpt_nr) |];
         };
         {
           Plot.label = "measured worst (random workloads)";
           glyph = '@';
           points = to_points measured;
         };
       ])

let run config =
  Runner.print_section "Figure 3 -- Ratio-replication tradeoff (m=210)";
  let m = 210 in
  List.iter (fun alpha -> one_alpha config ~m ~alpha) [ 1.1; 1.5; 2.0 ];
  Printf.printf
    "\nPaper's reading, checked here: for large alpha a handful of\n\
     replicas per task already beats the best possible unreplicated\n\
     guarantee; for small alpha replication buys little.\n"
