(* locality: replication transfer cost vs zone-outage robustness across
   network topologies. Full replication is maximally robust but pays
   every cross-zone link for every task; the zone-aware builders
   (zonegroup:K, localbudget:B) aim for the same fault-domain coverage
   at a fraction of the transfer bill. Each topology replays paired
   workloads: a healthy run (the engine charges staging before a
   machine's first copy), then one whole-zone outage per zone with
   online re-replication enabled. The acceptance gauge counts
   topologies where some zone-aware placement is strictly cheaper than
   full replication at equal-or-better completion. *)

module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Topology = Usched_model.Topology
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Core = Usched_core
module Strategy = Usched_core.Strategy
module Summary = Usched_stats.Summary

let m = 8
let n = 40
let alpha = 1.5

(* One intra-datacenter, one two-rack, one geo-distributed topology.
   Specs go through [Topology.of_spec] so the experiment exercises the
   same grammar the CLI exposes. *)
let topologies =
  [
    ("uniform", "uniform");
    ("two-rack", "zones:2:0.5");
    ("multi-zone-wan", "zones:4:0.1:5");
  ]

let strategies =
  [
    ("full (m copies)", Strategy.Full_replication Strategy.Lpt);
    ("ls-group k=2", Strategy.Group { order = Strategy.Ls; k = 2 });
    ("zonegroup:2", Strategy.Zone_group 2);
    ("localbudget:2.5", Strategy.Local_budget 2.5);
  ]

let zone_aware = [ "zonegroup:2"; "localbudget:2.5" ]

(* Crash every machine of [zone] at time [at] — a whole fault domain
   going dark mid-run. *)
let zone_outage topo ~zone ~at =
  Trace.of_events ~m
    (List.filter_map
       (fun i ->
         if Topology.zone topo i = zone then
           Some { Fault.machine = i; time = at; kind = Fault.Crash }
         else None)
       (List.init m Fun.id))

type cell = {
  cost : Summary.t; (* Placement.replication_cost per rep *)
  healthy : Summary.t; (* healthy C_max, staging included *)
  fault : Runner.fault_cell; (* one record per zone outage *)
}

let cell () =
  {
    cost = Summary.create ();
    healthy = Summary.create ();
    fault = Runner.fault_cell ();
  }

let completion c = Summary.mean c.fault.Runner.completion

let run config =
  Runner.print_section
    "Locality -- replication transfer cost vs zone-outage robustness";
  let reps = Stdlib.max 10 config.Runner.reps in
  Printf.printf
    "n=%d, m=%d, alpha=%g, %d reps per topology. Per rep: healthy replay\n\
     (engine stages data before a machine's first copy of a task), then\n\
     one whole-zone crash per zone at 0.3 x healthy makespan, with online\n\
     re-replication (target 2, bandwidth 1) healing over the topology's\n\
     links. Transfer cost is Placement.replication_cost: data born on\n\
     machine j mod m, every replica pays its path's latency + size/bw.\n\n"
    n m alpha reps;
  let wins = ref 0 in
  let recovery =
    Recovery.make ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0 ()
  in
  let rows =
    List.concat_map
      (fun (tname, spec) ->
        let topo =
          match Topology.of_spec ~m spec with
          | Ok t -> t
          | Error msg -> invalid_arg ("locality: " ^ msg)
        in
        let cells =
          List.map
            (fun (name, s) -> (name, Runner.strategy config ~m s, cell ()))
            strategies
        in
        (* One workload per rep, shared by every strategy and zone. *)
        Runner.paired_reps config ~salt:7177 ~reps (fun rng ->
            let instance, realization = Runner.generate ~n ~m ~alpha rng in
            let instance = Instance.with_topology instance (Some topo) in
            let order = Instance.lpt_order instance in
            let sizes = Instance.sizes instance in
            let total_work = Realization.total realization in
            List.iter
              (fun (_, algo, cell) ->
                let placement = algo.Core.Two_phase.phase1 instance in
                let sets = Core.Placement.sets placement in
                Summary.add cell.cost
                  (Core.Placement.replication_cost placement ~topology:topo
                     ~sizes);
                let healthy =
                  Schedule.makespan
                    (Engine.run instance realization ~placement:sets ~order)
                in
                Summary.add cell.healthy healthy;
                for zone = 0 to Topology.zones topo - 1 do
                  let faults = zone_outage topo ~zone ~at:(0.3 *. healthy) in
                  Runner.record_fault cell.fault ~healthy ~total_work
                    (Engine.run_faulty ~recovery instance realization ~faults
                       ~placement:sets ~order)
                done)
              cells);
        (* The acceptance question, per topology: does some zone-aware
           placement beat full replication's transfer bill strictly while
           completing at least as many tasks under every zone outage? *)
        let full =
          List.find (fun (name, _, _) -> name = "full (m copies)") cells
        in
        let _, _, full_cell = full in
        let full_cost = Summary.mean full_cell.cost in
        let full_done = completion full_cell in
        let best =
          List.fold_left
            (fun acc (name, _, cell) ->
              if
                List.mem name zone_aware
                && completion cell >= full_done -. 1e-9
              then
                match acc with
                | Some (_, c) when c <= Summary.mean cell.cost -> acc
                | _ -> Some (name, Summary.mean cell.cost)
              else acc)
            None cells
        in
        let key suffix = Printf.sprintf "locality.%s.%s" tname suffix in
        (match best with
        | Some (bname, bcost) when bcost < full_cost ->
            incr wins;
            Printf.printf
              "%s: %s wins -- transfer cost %.2f vs full replication's %.2f at\n\
               equal-or-better completion.\n"
              tname bname bcost full_cost;
            Metrics.set
              (Metrics.gauge config.Runner.metrics (key "cost_ratio"))
              (bcost /. full_cost)
        | _ ->
            Printf.printf
              "%s: no strict transfer-cost win over full replication (its\n\
               transfers are already free here).\n"
              tname;
            Metrics.set
              (Metrics.gauge config.Runner.metrics (key "cost_ratio"))
              1.0);
        Metrics.set
          (Metrics.gauge config.Runner.metrics (key "completion_delta"))
          ((match best with
           | Some (bname, _) ->
               let _, _, c =
                 List.find (fun (name, _, _) -> name = bname) cells
               in
               completion c
           | None -> full_done)
          -. full_done);
        List.map (fun (name, _, cell) -> (tname, name, cell)) cells)
      topologies
  in
  Metrics.set
    (Metrics.gauge config.Runner.metrics "locality.wins")
    (float_of_int !wins);
  let fault (_, _, c) = c.fault in
  Runner.report config ~csv:"locality"
    Runner.
      [
        text ~csv:"topology" "topology" (fun (tname, _, _) -> tname);
        text ~csv:"strategy" "strategy" (fun (_, name, _) -> name);
        float ~csv:"transfer_cost" "transfer cost" (fun (_, _, c) ->
            Summary.mean c.cost);
        float ~csv:"healthy_makespan" "healthy C_max" (fun (_, _, c) ->
            Summary.mean c.healthy);
        tasks_done fault;
        mean_degr fault;
      ]
    rows;
  Printf.printf
    "\nZone-aware placement strictly cheaper than full replication at\n\
     equal-or-better zone-outage robustness on %d/%d topologies (the\n\
     uniform topology's transfers are free, so no strict win exists\n\
     there).\n"
    !wins (List.length topologies)
