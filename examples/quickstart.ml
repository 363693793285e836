(* Quickstart: the full two-phase pipeline in ~40 lines.

   Build an instance with uncertain estimates, realize actual times, and
   compare the paper's three replication strategies.

   Run with: dune exec examples/quickstart.exe *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Core = Usched_core
module Rng = Usched_prng.Rng

let () =
  (* 1. The offline input: 12 tasks on 4 machines; estimates accurate
     within a factor alpha = 2. *)
  let ests = [| 9.0; 8.0; 7.0; 6.0; 5.0; 5.0; 4.0; 4.0; 3.0; 2.0; 2.0; 1.0 |] in
  let instance = Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 2.0) ests in
  Printf.printf "Instance: %s\n" (Format.asprintf "%a" Instance.pp instance);

  (* 2. Nature picks actual times inside the alpha intervals (the
     scheduler will only discover them as tasks complete). *)
  let rng = Rng.create ~seed:2024 () in
  let realization = Realization.log_uniform_factor instance rng in

  (* 3. Run the three strategies of the paper. *)
  let strategies =
    List.map
      (fun spec -> Core.Strategy.build spec ~m:(Instance.m instance))
      Core.Strategy.
        [
          No_replication Lpt; (* |M_j| = 1 *)
          Group { order = Ls; k = 2 }; (* |M_j| = m/k = 2 *)
          Full_replication Lpt; (* |M_j| = m *)
        ]
  in
  let opt =
    Core.Opt.makespan ~m:(Instance.m instance) (Realization.actuals realization)
  in
  Printf.printf "Clairvoyant optimum on the realized times: %.3f\n\n" opt;
  List.iter
    (fun algo ->
      let placement, schedule = Core.Two_phase.run_full algo instance realization in
      Printf.printf "%-22s makespan %.3f  (ratio %.3f, replicas/task %d)\n"
        algo.Core.Two_phase.name
        (Schedule.makespan schedule)
        (Schedule.makespan schedule /. opt)
        (Core.Placement.max_replication placement))
    strategies;
  Printf.printf
    "\nMore replication = more phase-2 freedom = a makespan closer to the\n\
     clairvoyant optimum, exactly the tradeoff the paper quantifies.\n"
