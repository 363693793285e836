(* Failover demo: what replication buys when a machine dies mid-run.

   One small instance, replicated in groups of 3 machines, executed
   twice with the same realization: once on a healthy cluster, once
   with machine 0 crashing halfway through. The faulty run kills the
   task in flight on machine 0 and re-dispatches it to a surviving
   replica holder — the two Gantt charts show the hole and the patch.
   A third section slows a machine down instead of killing it and lets
   speculative re-execution race a backup copy against the straggler.

   Run with: dune exec examples/failover_demo.exe *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Gantt = Usched_desim.Gantt
module Timeline = Usched_desim.Timeline
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Core = Usched_core
module Rng = Usched_prng.Rng

let m = 6
let n = 18

let () =
  let rng = Rng.create ~seed:2024 () in
  let instance =
    Workload.generate
      (Workload.Uniform { lo = 2.0; hi = 9.0 })
      ~n ~m
      ~alpha:(Uncertainty.alpha 1.5)
      rng
  in
  let realization = Realization.log_uniform_factor instance rng in
  let algo = Core.Strategy.(build (Group { order = Ls; k = 2 }) ~m) in
  let placement = algo.Core.Two_phase.phase1 instance in
  let sets = Core.Placement.sets placement in
  let order = Instance.lpt_order instance in

  Printf.printf
    "Failover demo: %d tasks on %d machines, groups of %d replicas\n\
     (LS-Group k=2). Machine 0 crashes at 50%% of the healthy makespan;\n\
     its in-flight task is re-dispatched to a surviving replica holder.\n\n"
    n m (m / 2);

  (* Healthy run. *)
  let healthy = Engine.run instance realization ~placement:sets ~order in
  let healthy_makespan = Schedule.makespan healthy in

  (* The same run with machine 0 crashing mid-way. *)
  let crash_time = 0.5 *. healthy_makespan in
  let faults =
    Trace.of_events ~m
      [ { Fault.machine = 0; time = crash_time; kind = Fault.Crash } ]
  in
  let outcome, events =
    Engine.run_faulty_traced instance realization ~faults ~placement:sets ~order
  in
  (match Engine.outcome_schedule ~m outcome with
  | Some faulty ->
      print_string
        (Gantt.render_two ~left_title:"healthy cluster"
           ~right_title:
             (Printf.sprintf "machine 0 crashes at t=%.1f" crash_time)
           healthy faulty)
  | None ->
      (* Two replicas per task: a single crash can never strand a task. *)
      assert false);
  Printf.printf
    "\nC_max %.2f -> %.2f (%.2fx); %.2f units of work were lost with the\n\
     machine and re-run from scratch on a surviving replica holder.\n"
    healthy_makespan outcome.Engine.makespan
    (outcome.Engine.makespan /. healthy_makespan)
    outcome.Engine.wasted;

  Printf.printf "\nEvent log of the faulty run around the crash:\n";
  let interesting =
    List.filter
      (fun (e : Engine.event) ->
        match e with
        | Engine.Machine_crashed _ | Engine.Killed _ -> true
        | Engine.Started { time; _ } -> time >= crash_time
        | _ -> false)
      events
  in
  print_string (Timeline.render_events interesting);

  (* Straggler section: slow machine 0 down instead of killing it and
     race a speculative backup against the limping copy. *)
  Printf.printf
    "\n---\n\n\
     Same cluster, but machine 0 slows to 25%% speed at t=%.1f instead\n\
     of dying. Without speculation the in-flight task limps home; with\n\
     speculation (beta=1.3) an idle replica holder starts a backup and\n\
     the first copy to finish wins.\n\n"
    (0.25 *. healthy_makespan);
  let slow =
    Trace.of_events ~m
      [
        {
          Fault.machine = 0;
          time = 0.25 *. healthy_makespan;
          kind = Fault.Slowdown 0.25;
        };
      ]
  in
  let plain =
    Engine.run_faulty instance realization ~faults:slow ~placement:sets ~order
  in
  let spec =
    Engine.run_faulty ~speculation:1.3 instance realization ~faults:slow
      ~placement:sets ~order
  in
  Printf.printf
    "no speculation:   C_max %.2f (%.2fx healthy), wasted %.2f\n\
     speculation on:   C_max %.2f (%.2fx healthy), wasted %.2f\n\n\
     Replication pays twice: the crash is survivable because a second\n\
     copy of the data exists, and the straggler is beatable because a\n\
     second machine is allowed to run the task.\n"
    plain.Engine.makespan
    (plain.Engine.makespan /. healthy_makespan)
    plain.Engine.wasted spec.Engine.makespan
    (spec.Engine.makespan /. healthy_makespan)
    spec.Engine.wasted
