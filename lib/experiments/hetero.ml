module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Speed_band = Usched_model.Speed_band
module Schedule = Usched_desim.Schedule
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Table = Usched_report.Table
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Dispatch = Usched_desim.Dispatch

let run config =
  Runner.print_section
    "Heterogeneous machines -- replication vs slow nodes (extension)";
  let m = 8 in
  (* Two fast nodes, four standard, two half-speed stragglers — the
     degenerate (known-speed) slice of the tiered speed band. *)
  let tiered = Speed_band.tiered ~m in
  let speeds = Speed_band.los tiered in
  Printf.printf "m=%d machines with speeds [%s], n=48 tasks.\n\n" m
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%g") speeds)));
  let algo variant =
    Runner.strategy config ~m (Strategy.Uniform { variant; speeds })
  in
  let strategies alpha =
    ignore alpha;
    Strategy.
      [
        ("no replication (ECT-LPT)", algo U_no_choice);
        ("groups of 2 (k=4)", algo (U_group 4));
        ("full replication", algo U_no_restriction);
      ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("alpha", Table.Right);
          ("strategy", Table.Left);
          ("mean ratio vs LB", Table.Right);
          ("worst ratio vs LB", Table.Right);
        ]
  in
  List.iter
    (fun alpha ->
      List.iter
        (fun (name, algo) ->
          let rng = Rng.create ~seed:config.Runner.seed () in
          let summary = Summary.create () in
          for _ = 1 to Stdlib.max 10 config.Runner.reps do
            let instance =
              Workload.generate
                (Workload.Uniform { lo = 1.0; hi = 10.0 })
                ~n:48 ~m
                ~alpha:(Uncertainty.alpha alpha)
                rng
            in
            let realization =
              if alpha > 1.0 then Realization.log_uniform_factor instance rng
              else Realization.exact instance
            in
            let schedule = Core.Two_phase.run algo instance realization in
            let lb =
              Core.Uniform.lower_bound ~speeds (Realization.actuals realization)
            in
            Summary.add summary (Schedule.makespan schedule /. lb)
          done;
          Table.add_row table
            [
              Table.cell_float ~decimals:1 alpha;
              name;
              Table.cell_float (Summary.mean summary);
              Table.cell_float (Summary.max summary);
            ])
        (strategies alpha))
    [ 1.0; 2.0 ];
  print_string (Table.render table);
  Printf.printf
    "\n(Ratios are against the uniform-machines lower bound, so they are\n\
     pessimistic. Pinned placement suffers twice — estimates mislead it\n\
     AND a task stuck on a 0.5x node cannot move; replication absorbs\n\
     both effects, and the gap widens with alpha.)\n";
  (* The speed-band cell: the same tiers, but each machine only known to
     within a +/-25%% band around its nominal speed. The placement is
     committed at the nominal speeds; the adversary then reveals the
     worst in-band corner. *)
  let band = Speed_band.widen tiered ~spread:1.25 in
  Printf.printf
    "\nSpeed-band cell: nominal tiers widened by 1.25x (each speed only\n\
     known to a [s/1.25, 1.25*s] band), alpha=1. 'adv ratio' is the worst\n\
     in-band revelation's makespan over the lower bound at the revealed\n\
     speeds.\n\n";
  let band_table =
    Table.create
      ~columns:
        [
          ("strategy", Table.Left);
          ("mean adv ratio", Table.Right);
          ("worst adv ratio", Table.Right);
        ]
  in
  List.iter
    (fun (name, algo) ->
      let rng = Rng.create ~seed:config.Runner.seed () in
      let summary = Summary.create () in
      for _ = 1 to Stdlib.max 10 config.Runner.reps do
        let instance =
          Workload.generate
            (Workload.Uniform { lo = 1.0; hi = 10.0 })
            ~n:48 ~m
            ~alpha:(Uncertainty.alpha 1.0)
            rng
        in
        let instance = Instance.with_speed_band instance (Some band) in
        let realization = Realization.exact instance in
        let placement = algo.Core.Two_phase.phase1 instance in
        let _, adv, _ =
          Speed_sweep.adversarial_ratio ~dispatch:Dispatch.default
            ~domains:1 ~draws:[||] instance realization placement band
        in
        Summary.add summary adv
      done;
      Table.add_row band_table
        [
          name;
          Table.cell_float (Summary.mean summary);
          Table.cell_float (Summary.max summary);
        ])
    (strategies 1.0);
  print_string (Table.render band_table)
