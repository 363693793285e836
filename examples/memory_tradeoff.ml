(* Choosing delta: the memory-makespan dial of SABO and ABO.

   A capacity-planning walkthrough: given a mixed workload and a
   per-machine memory budget, sweep delta, measure both objectives for
   both algorithms, and pick the cheapest configuration that fits.

   Run with: dune exec examples/memory_tradeoff.exe *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Core = Usched_core
module Rng = Usched_prng.Rng
module Table = Usched_report.Table

let m = 5
let budget = 70.0 (* memory units per machine *)

let () =
  let rng = Rng.create ~seed:31 () in
  (* Short tasks carry big data, long tasks small data — the adversarial
     mix for bi-objective scheduling. *)
  let instance =
    Workload.generate
      (Workload.Uniform { lo = 1.0; hi = 20.0 })
      ~size_spec:(Workload.Inverse 60.0) ~n:40 ~m
      ~alpha:(Uncertainty.alpha 1.4)
      rng
  in
  let realization = Realization.log_uniform_factor instance rng in
  let mem_star = Core.Memory.lower_bound ~m ~sizes:(Instance.sizes instance) in
  let lb = Core.Lower_bounds.best ~m (Realization.actuals realization) in
  Printf.printf
    "Capacity planning: %d machines, %d tasks, per-machine memory budget\n\
     %.0f (memory lower bound %.1f, makespan lower bound %.1f).\n\n"
    m (Instance.n instance) budget mem_star lb;
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("delta", Table.Right);
          ("makespan", Table.Right);
          ("mem_max", Table.Right);
          ("fits budget", Table.Left);
        ]
  in
  let best = ref None in
  let consider name makespan mem =
    if mem <= budget then
      match !best with
      | Some (_, mk, _) when mk <= makespan -> ()
      | _ -> best := Some (name, makespan, mem)
  in
  List.iter
    (fun delta ->
      List.iter
        (fun (name, spec_of) ->
          let algo = Core.Strategy.build (spec_of delta) ~m in
          let placement, schedule =
            Core.Two_phase.run_full algo instance realization
          in
          let mem = Core.Memory.of_placement instance placement in
          let makespan = Schedule.makespan schedule in
          let label = Printf.sprintf "%s(delta=%g)" name delta in
          consider label makespan mem;
          Table.add_row table
            [
              name;
              Table.cell_float ~decimals:2 delta;
              Table.cell_float ~decimals:2 makespan;
              Table.cell_float ~decimals:2 mem;
              (if mem <= budget then "yes" else "no");
            ])
        [
          ("SABO", fun delta -> Core.Strategy.Sabo delta);
          ("ABO", fun delta -> Core.Strategy.Abo delta);
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  print_string (Table.render table);
  (match !best with
  | Some (name, makespan, mem) ->
      Printf.printf
        "\nBest configuration within budget: %s -> makespan %.2f at memory %.2f.\n"
        name makespan mem
  | None -> Printf.printf "\nNo configuration fits the budget; raise it.\n");
  Printf.printf
    "SABO never replicates (cheap memory, looser makespan); ABO replicates\n\
     time-critical tasks (memory rises with m, makespan drops). The paper's\n\
     rule: prefer ABO when alpha*rho1 >= 2, SABO when memory is scarce.\n"
