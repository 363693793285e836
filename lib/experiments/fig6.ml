module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Plot = Usched_report.Ascii_plot
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Rng = Usched_prng.Rng

let sabo_curve ~alpha ~rho ~deltas =
  List.map
    (fun delta ->
      ( Core.Guarantees.sabo_memory ~delta ~rho2:rho,
        Core.Guarantees.sabo_makespan ~alpha ~delta ~rho1:rho ))
    deltas

let abo_curve ~m ~alpha ~rho ~deltas =
  List.map
    (fun delta ->
      ( Core.Guarantees.abo_memory ~m ~delta ~rho2:rho,
        Core.Guarantees.abo_makespan ~m ~alpha ~delta ~rho1:rho ))
    deltas

let log_grid ~lo ~hi ~steps =
  List.init steps (fun i ->
      lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (steps - 1))))

let one_config ?config ~m ~alpha2 ~rho () =
  let alpha = sqrt alpha2 in
  Printf.printf "\n--- m=%d, alpha^2=%g, rho1=rho2=%g ---\n" m alpha2 rho;
  let deltas = log_grid ~lo:0.05 ~hi:20.0 ~steps:25 in
  let sabo = sabo_curve ~alpha ~rho ~deltas in
  let abo = abo_curve ~m ~alpha ~rho ~deltas in
  (* Clip to a readable window: memory guarantee in [1, 12]. *)
  let clip = List.filter (fun (mem, mk) -> mem <= 12.0 && mk <= 14.0) in
  let impossibility =
    List.filter_map
      (fun mk ->
        if mk > 1.001 then Some (Core.Guarantees.tradeoff_impossibility ~makespan_ratio:mk, mk)
        else None)
      (log_grid ~lo:1.02 ~hi:14.0 ~steps:40)
    |> List.filter (fun (mem, _) -> mem <= 12.0)
  in
  print_string
    (Plot.plot ~width:64 ~height:20 ~x_label:"memory guarantee"
       ~y_label:"makespan guarantee"
       ~title:
         (Printf.sprintf "Figure 6, m=%d, alpha^2=%g, rho=%g (sweep of delta)"
            m alpha2 rho)
       [
         {
           Plot.label = "impossibility hyperbola (bold line of the paper)";
           glyph = '#';
           points = Array.of_list impossibility;
         };
         { Plot.label = "SABO"; glyph = 's'; points = Array.of_list (clip sabo) };
         { Plot.label = "ABO"; glyph = 'a'; points = Array.of_list (clip abo) };
       ]);
  (* A few anchor rows. *)
  let table =
    Table.create
      ~columns:
        [
          ("delta", Table.Right);
          ("SABO (mem, makespan)", Table.Left);
          ("ABO (mem, makespan)", Table.Left);
        ]
  in
  List.iter
    (fun delta ->
      let pair (mem, mk) =
        Printf.sprintf "(%s, %s)" (Table.cell_float mem) (Table.cell_float mk)
      in
      Table.add_row table
        [
          Table.cell_float ~decimals:2 delta;
          pair (List.hd (sabo_curve ~alpha ~rho ~deltas:[ delta ]));
          pair (List.hd (abo_curve ~m ~alpha ~rho ~deltas:[ delta ]));
        ])
    [ 0.25; 0.5; 1.0; 2.0; 5.0 ];
  print_string (Table.render table);
  (match config with
  | None -> ()
  | Some config ->
      Runner.maybe_csv config
        ~name:(Printf.sprintf "fig6_m%d_alpha2_%g_rho%g" m alpha2 rho)
        ~header:[ "delta"; "sabo_memory"; "sabo_makespan"; "abo_memory"; "abo_makespan" ]
        (List.map2
           (fun delta ((s_mem, s_mk), (a_mem, a_mk)) ->
             [
               Runner.csv_float delta;
               Runner.csv_float s_mem;
               Runner.csv_float s_mk;
               Runner.csv_float a_mem;
               Runner.csv_float a_mk;
             ])
           deltas
           (List.combine sabo abo)));
  Printf.printf "alpha*rho1 = %.3f => %s\n" (alpha *. rho)
    (if Core.Guarantees.abo_beats_sabo_on_makespan ~alpha ~rho1:rho then
       "ABO dominates on makespan (paper's crossover rule)"
     else "no uniform makespan dominance; SABO still dominates on memory")

(* Empirical counterpart of the guarantee curves: measured
   (memory ratio, makespan ratio) as delta sweeps, worst over a small
   instance set with exact optima. *)
let measured_frontier config ~m ~alpha =
  Printf.printf
    "\nMeasured frontier at m=%d, alpha=%g (worst over random instances,\n\
     exact optima; compare shapes with the guarantee curves above):\n"
    m alpha;
  let alpha_v = Uncertainty.alpha alpha in
  let deltas = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let measure algo_of placement_of delta =
    let rng = Rng.create ~seed:config.Runner.seed () in
    let worst_mk = ref 0.0 and worst_mem = ref 0.0 in
    for _ = 1 to Stdlib.max 5 (config.Runner.reps / 5) do
      let instance =
        Workload.generate
          (Workload.Uniform { lo = 1.0; hi = 10.0 })
          ~size_spec:(Workload.Inverse 5.0) ~n:12 ~m ~alpha:alpha_v rng
      in
      let realization = Realization.uniform_factor instance rng in
      let schedule = Core.Two_phase.run (algo_of delta) instance realization in
      let opt, _ =
        Runner.opt_estimate config ~m (Realization.actuals realization)
      in
      let mem = Core.Memory.of_placement instance (placement_of delta instance) in
      let mem_star = Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance) in
      worst_mk := Float.max !worst_mk (Schedule.makespan schedule /. opt);
      worst_mem := Float.max !worst_mem (mem /. mem_star)
    done;
    (!worst_mem, !worst_mk)
  in
  let sabo =
    List.map
      (measure
         (fun delta -> Runner.strategy config ~m (Strategy.Sabo delta))
         (fun delta instance -> Core.Sabo.placement ~delta instance))
      deltas
  in
  let abo =
    List.map
      (measure
         (fun delta -> Runner.strategy config ~m (Strategy.Abo delta))
         (fun delta instance -> Core.Abo.placement ~delta instance))
      deltas
  in
  print_string
    (Plot.plot ~width:56 ~height:14 ~x_label:"measured memory ratio"
       ~y_label:"measured makespan ratio"
       ~title:"Measured Pareto points (s = SABO, a = ABO), delta in {0.25..4}"
       [
         { Plot.label = "SABO measured"; glyph = 's'; points = Array.of_list sabo };
         { Plot.label = "ABO measured"; glyph = 'a'; points = Array.of_list abo };
       ])

let run config =
  Runner.print_section "Figure 6 -- Memory-makespan guarantee tradeoff";
  one_config ~config ~m:5 ~alpha2:2.0 ~rho:(4.0 /. 3.0) ();
  one_config ~config ~m:5 ~alpha2:3.0 ~rho:1.0 ();
  one_config ~config ~m:5 ~alpha2:3.0 ~rho:(4.0 /. 3.0) ();
  measured_frontier config ~m:5 ~alpha:(sqrt 2.0)
