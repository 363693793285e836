(* Topology layer: constructor validation, bit-exact serialization
   round-trip, the --topology CLI grammar, cost arithmetic, the
   zone-aware placement builders and staging-aware lower bound — and
   THE safety contract of the tentpole refactor: attaching the uniform
   (or a free-edged multi-zone) topology to an instance is bit-for-bit
   the topology-free engine and the scalar-bandwidth recovery policy,
   across the PR 4 fault-scenario ensemble and every dispatch policy. *)

module Topology = Usched_model.Topology
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Bitset = Usched_model.Bitset
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json
module Rng = Usched_prng.Rng
module Placement = Usched_core.Placement
module Lower_bounds = Usched_core.Lower_bounds
module Zone_placement = Usched_core.Zone_placement

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* A two-zone topology with a priced cross link, used throughout. *)
let two_zone ?(bandwidth = 1.0) ?(latency = 0.5) () =
  Topology.make ~zone_of:[| 0; 1 |]
    ~bandwidth:[| [| infinity; bandwidth |]; [| bandwidth; infinity |] |]
    ~latency:[| [| 0.0; latency |]; [| latency; 0.0 |] |]

(* ------------------------- construction ----------------------------- *)

let constructors () =
  let u = Topology.uniform ~m:3 in
  checki "uniform m" 3 (Topology.m u);
  checki "uniform zones" 1 (Topology.zones u);
  checkb "uniform is uniform" true (Topology.is_uniform u);
  close "uniform staging free" 0.0
    (Topology.staging_time u ~src:0 ~dst:2 ~size:7.0);
  let z = Topology.zoned ~m:4 ~zones:2 ~bandwidth:2.0 () in
  checki "zoned zones" 2 (Topology.zones z);
  checkb "balanced split" true
    (Topology.zone z 0 = 0 && Topology.zone z 1 = 0 && Topology.zone z 2 = 1
   && Topology.zone z 3 = 1);
  checkb "same zone" true (Topology.same_zone z 0 1);
  checkb "cross zone" false (Topology.same_zone z 1 2);
  close "intra-zone staging free" 0.0
    (Topology.staging_time z ~src:0 ~dst:1 ~size:4.0);
  close "cross-zone staging = size/bw" 2.0
    (Topology.staging_time z ~src:0 ~dst:3 ~size:4.0);
  let zl = Topology.zoned ~latency:0.5 ~m:4 ~zones:2 ~bandwidth:2.0 () in
  close "latency adds" 2.5 (Topology.staging_time zl ~src:0 ~dst:3 ~size:4.0);
  close "zone_cost diagonal" 0.0 (Topology.zone_cost zl ~src:1 ~dst:1 ~size:9.0);
  close "zone_cost off-diagonal" 2.5
    (Topology.zone_cost zl ~src:0 ~dst:1 ~size:4.0)

let machine_paths () =
  let t = two_zone ~bandwidth:4.0 ~latency:0.25 () in
  checkb "same machine: infinite bandwidth" true
    (Topology.path_bandwidth t ~src:0 ~dst:0 = infinity);
  close "same machine: zero latency" 0.0 (Topology.path_latency t ~src:1 ~dst:1);
  close "cross-zone bandwidth" 4.0 (Topology.path_bandwidth t ~src:0 ~dst:1);
  close "cross-zone latency" 0.25 (Topology.path_latency t ~src:1 ~dst:0);
  (* Machine paths resolve through zones: machines 0,1 share zone 0 and
     2,3 share zone 1. *)
  let z = Topology.zoned ~latency:0.5 ~m:4 ~zones:2 ~bandwidth:2.0 () in
  checkb "intra-zone machines: infinite bandwidth" true
    (Topology.path_bandwidth z ~src:0 ~dst:1 = infinity);
  close "intra-zone machines: zero latency" 0.0
    (Topology.path_latency z ~src:3 ~dst:2);
  List.iter
    (fun (src, dst) ->
      close "staging = latency + size / bandwidth"
        (Topology.staging_time z ~src ~dst ~size:3.0)
        (Topology.path_latency z ~src ~dst
        +. (3.0 /. Topology.path_bandwidth z ~src ~dst)))
    [ (0, 2); (1, 3); (2, 0); (3, 1) ]

let validation () =
  let bw2 = [| [| infinity; 1.0 |]; [| 1.0; infinity |] |] in
  let lat2 = [| [| 0.0; 0.5 |]; [| 0.5; 0.0 |] |] in
  raises_invalid "empty machine set" (fun () ->
      Topology.make ~zone_of:[||] ~bandwidth:bw2 ~latency:lat2);
  raises_invalid "non-contiguous zones" (fun () ->
      Topology.make ~zone_of:[| 0; 2 |] ~bandwidth:bw2 ~latency:lat2);
  raises_invalid "empty zone" (fun () ->
      Topology.make ~zone_of:[| 1; 1 |] ~bandwidth:bw2 ~latency:lat2);
  raises_invalid "asymmetric bandwidth" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |]
        ~bandwidth:[| [| infinity; 1.0 |]; [| 2.0; infinity |] |] ~latency:lat2);
  raises_invalid "NaN bandwidth" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |]
        ~bandwidth:[| [| infinity; nan |]; [| nan; infinity |] |] ~latency:lat2);
  raises_invalid "zero bandwidth" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |]
        ~bandwidth:[| [| infinity; 0.0 |]; [| 0.0; infinity |] |] ~latency:lat2);
  raises_invalid "finite diagonal bandwidth" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |]
        ~bandwidth:[| [| 5.0; 1.0 |]; [| 1.0; 5.0 |] |] ~latency:lat2);
  raises_invalid "negative latency" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |] ~bandwidth:bw2
        ~latency:[| [| 0.0; -1.0 |]; [| -1.0; 0.0 |] |]);
  raises_invalid "infinite latency" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |] ~bandwidth:bw2
        ~latency:[| [| 0.0; infinity |]; [| infinity; 0.0 |] |]);
  raises_invalid "nonzero diagonal latency" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |] ~bandwidth:bw2
        ~latency:[| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |]);
  raises_invalid "ragged matrix" (fun () ->
      Topology.make ~zone_of:[| 0; 1 |]
        ~bandwidth:[| [| infinity |]; [| 1.0; infinity |] |] ~latency:lat2);
  raises_invalid "zone id far past the machine count" (fun () ->
      Topology.make ~zone_of:[| 0; max_int |] ~bandwidth:[| [| infinity |] |]
        ~latency:[| [| 0.0 |] |]);
  raises_invalid "zoned zones > m" (fun () ->
      Topology.zoned ~m:2 ~zones:3 ~bandwidth:1.0 ());
  raises_invalid "instance machine-count mismatch" (fun () ->
      Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0)
        ~topology:(Topology.uniform ~m:2) [| 1.0 |])

(* -------------------- serialization round-trip ---------------------- *)

let topo_gen =
  QCheck.Gen.(
    let* m = int_range 1 6 in
    let* z = int_range 1 m in
    let* seed = int_bound 1_000_000 in
    return (m, z, seed))

let random_topology (m, z, seed) =
  let rng = Rng.create ~seed () in
  let zone_of = Array.init m (fun i -> i * z / m) in
  let cell () =
    if Rng.bernoulli rng ~p:0.2 then infinity
    else Rng.float_range rng ~lo:0.25 ~hi:8.0
  in
  let bandwidth = Array.make_matrix z z infinity in
  let latency = Array.make_matrix z z 0.0 in
  for a = 0 to z - 1 do
    for b = a + 1 to z - 1 do
      let bw = cell () and lat = Rng.float_range rng ~lo:0.0 ~hi:3.0 in
      bandwidth.(a).(b) <- bw;
      bandwidth.(b).(a) <- bw;
      latency.(a).(b) <- lat;
      latency.(b).(a) <- lat
    done
  done;
  Topology.make ~zone_of ~bandwidth ~latency

let prop_round_trip =
  QCheck.Test.make ~name:"to_string/of_spec round-trips bit-exactly"
    ~count:300
    (QCheck.make
       ~print:(fun (m, z, seed) -> Printf.sprintf "m=%d z=%d seed=%d" m z seed)
       topo_gen)
    (fun params ->
      let t = random_topology params in
      match Topology.of_spec ~m:(Topology.m t) (Topology.to_string t) with
      | Ok t' -> Helpers.topology_equal t t'
      | Error msg -> QCheck.Test.fail_reportf "round-trip failed: %s" msg)

let spec_grammar () =
  (match Topology.of_spec ~m:4 "uniform" with
  | Ok t -> checkb "uniform spec" true (Topology.is_uniform t && Topology.m t = 4)
  | Error e -> Alcotest.failf "uniform rejected: %s" e);
  (match Topology.of_spec ~m:4 "zones:2:0.5" with
  | Ok t ->
      checki "zones spec zones" 2 (Topology.zones t);
      close "zones spec bandwidth" 8.0
        (Topology.staging_time t ~src:0 ~dst:3 ~size:4.0)
  | Error e -> Alcotest.failf "zones:2:0.5 rejected: %s" e);
  (match Topology.of_spec ~m:4 "zones:4:0.1:5" with
  | Ok t ->
      checki "zones+latency zones" 4 (Topology.zones t);
      close "zones+latency staging" 15.0
        (Topology.staging_time t ~src:0 ~dst:3 ~size:1.0)
  | Error e -> Alcotest.failf "zones:4:0.1:5 rejected: %s" e);
  let serialized = Topology.to_string (two_zone ()) in
  (match Topology.of_spec ~m:2 serialized with
  | Ok t -> checkb "serialized form accepted" true (Helpers.topology_equal t (two_zone ()))
  | Error e -> Alcotest.failf "serialized form rejected: %s" e);
  let contains msg frag =
    let fl = String.length frag and ml = String.length msg in
    let rec scan i = i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun bad ->
      match Topology.of_spec ~m:4 bad with
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" bad
      | Error msg ->
          checkb
            (Printf.sprintf "error for %S carries the grammar" bad)
            true
            (contains msg "uniform" && contains msg "zones:Z:BW"))
    [
      "zones:0:1"; "zones:9:1"; "zones:2:-1"; "bogus"; ""; "zones:2";
      "0,1,1,999999999999|inf,1:1,inf|0,0:0,0";
      Printf.sprintf "0,1,1,%d|inf,1:1,inf|0,0:0,0" max_int;
    ];
  (* Machine-count mismatch on the serialized form is rejected. *)
  match Topology.of_spec ~m:5 serialized with
  | Ok _ -> Alcotest.fail "wrong-m serialized form accepted"
  | Error _ -> ()

(* ------------------- recovery scalar contract ----------------------- *)

let prop_recovery_uniform_is_scalar =
  QCheck.Test.make
    ~name:"uniform topology reproduces scalar-bandwidth recovery bit-for-bit"
    ~count:300
    (QCheck.make
       ~print:(fun (m, bw, size, seed) ->
         Printf.sprintf "m=%d bw=%.4f size=%.4f seed=%d" m bw size seed)
       QCheck.Gen.(
         let* m = int_range 1 6 in
         let* bw = float_range 0.1 20.0 in
         let* size = float_range 0.0 50.0 in
         let* seed = int_bound 1_000_000 in
         return (m, bw, size, seed)))
    (fun (m, bw, size, seed) ->
      let rng = Rng.create ~seed () in
      let policy = Recovery.make ~bandwidth:bw () in
      let topo = Topology.uniform ~m in
      let src = Rng.int rng m and dst = Rng.int rng m in
      Recovery.transfer_time policy ~src ~dst ~size
      = Recovery.transfer_time ~topology:topo policy ~src ~dst ~size)

let transfer_time_paths () =
  let policy = Recovery.make ~bandwidth:4.0 () in
  let topo = two_zone ~bandwidth:1.0 ~latency:0.5 () in
  close "intra-zone = scalar" 2.0
    (Recovery.transfer_time ~topology:topo policy ~src:0 ~dst:0 ~size:8.0);
  (* Cross-zone: latency + size / min(policy bw, link bw). *)
  close "cross-zone capped by the link" 8.5
    (Recovery.transfer_time ~topology:topo policy ~src:0 ~dst:1 ~size:8.0);
  let fat = two_zone ~bandwidth:100.0 ~latency:0.5 () in
  close "cross-zone capped by the pipeline" 2.5
    (Recovery.transfer_time ~topology:fat policy ~src:0 ~dst:1 ~size:8.0)

(* ---------------- the golden engine contract ------------------------ *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, p, seed))

let scenario =
  QCheck.make
    ~print:(fun (n, m, k, p, seed) ->
      Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed)
    scenario_gen

let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  let order = Instance.lpt_order instance in
  let horizon = 2.0 *. Realization.total realization in
  let faults =
    Helpers.merge_traces
      (Trace.random_crashes rng ~m ~p ~horizon)
      (Helpers.merge_traces
         (Trace.random_outages rng ~m ~p ~horizon ~duration:(0.5, 5.0))
         (Trace.random_slowdowns rng ~m ~p ~horizon ~factor:(0.2, 0.9)))
  in
  (instance, realization, placement, order, faults)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

let outcomes_identical (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.completed = b.Engine.completed
  && a.Engine.stranded = b.Engine.stranded
  && a.Engine.makespan = b.Engine.makespan
  && a.Engine.wasted = b.Engine.wasted
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Engine.Stranded, Engine.Stranded -> true
         | Engine.Finished e, Engine.Finished f -> entries_equal e f
         | _ -> false)
       a.Engine.fates b.Engine.fates
  && Json.to_string (Metrics.to_json a.Engine.metrics)
     = Json.to_string (Metrics.to_json b.Engine.metrics)

(* A multi-zone topology whose every edge is free: staging times are all
   exactly 0, so it must be as invisible as the uniform one — the
   intra-zone fast paths and the [x +. 0.0 = x] identities both get
   exercised. *)
let free_edged ~m =
  if m < 2 then Topology.uniform ~m
  else
    let z = 2 in
    Topology.make
      ~zone_of:(Array.init m (fun i -> i * z / m))
      ~bandwidth:(Array.make_matrix z z infinity)
      ~latency:(Array.make_matrix z z 0.0)

(* THE golden property: the faulty engine and scalar recovery with the
   uniform (and free-edged) topology attached are bit-for-bit the
   topology-free run — fates, floats, events, metrics — across mixed
   fault regimes, recovery none/neutral/active, and every dispatch
   policy. *)
let prop_uniform_topology_is_golden =
  QCheck.Test.make
    ~name:"uniform/free topologies are bit-for-bit the bare faulty engine"
    ~count:320 scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults = build s in
      let m = Instance.m instance in
      let speculation = if seed mod 3 = 0 then Some 1.3 else None in
      let metrics_on = seed mod 2 = 0 in
      let recovery =
        match seed mod 5 with
        | 0 | 1 ->
            Recovery.make ~detection_latency:0.5
              ~rereplication_target:(Recovery.Fixed 2) ~bandwidth:1.0
              ~checkpoint_interval:1.0 ()
        | 2 -> Recovery.make ()
        | _ -> Recovery.none
      in
      let registry () =
        if metrics_on then Metrics.create () else Metrics.disabled
      in
      let run dispatch instance =
        Engine.run_faulty_traced ?speculation ~dispatch ~recovery
          ~metrics:(registry ()) instance realization ~faults
          ~placement:(Helpers.holders (Array.map Bitset.copy placement)) ~order
      in
      List.for_all
        (fun dispatch ->
          let a, ev_a = run dispatch instance in
          List.for_all
            (fun topo ->
              let b, ev_b =
                run dispatch (Instance.with_topology instance (Some topo))
              in
              outcomes_identical a b && ev_a = ev_b)
            [ Topology.uniform ~m; free_edged ~m ])
        Dispatch.builtin)

(* Healthy engine: same contract for schedule and event log. *)
let prop_uniform_topology_is_golden_healthy =
  QCheck.Test.make
    ~name:"healthy engine: uniform topology is bit-for-bit the bare engine"
    ~count:200 scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, _ = build s in
      let m = Instance.m instance in
      let speeds =
        if seed mod 2 = 0 then
          Some (Array.init m (fun i -> 0.5 +. (0.5 *. float_of_int (i + 1))))
        else None
      in
      let a, ev_a =
        Engine.run_traced ?speeds instance realization
          ~placement:(Helpers.holders placement) ~order
      in
      let b, ev_b =
        Engine.run_traced ?speeds
          (Instance.with_topology instance (Some (Topology.uniform ~m)))
          realization ~placement:(Helpers.holders placement) ~order
      in
      ev_a = ev_b
      && Array.for_all2 entries_equal
           (Array.init (Schedule.n a) (Schedule.entry a))
           (Array.init (Schedule.n b) (Schedule.entry b)))

(* -------------------- engine staging behavior ----------------------- *)

(* One task, placed only across the zone boundary: the engine charges
   the staging time before (well, around) the execution — the finish
   moves back by exactly latency + size/bandwidth. *)
let staging_delays_first_copy () =
  let topo = two_zone ~bandwidth:1.0 ~latency:0.5 () in
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) ~sizes:[| 2.0 |]
      ~topology:topo [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let remote = [| Bitset.of_list 2 [ 1 ] |] in
  let s =
    Engine.run instance realization ~placement:(Helpers.holders remote) ~order:[| 0 |]
  in
  let e = (Schedule.entry s 0 : Schedule.entry) in
  checki "runs on the remote holder" 1 e.Schedule.machine;
  (* Home is machine 0 (0 mod 2); staging 0.5 + 2/1 = 2.5 on top of 4. *)
  close "staging charged on the cross-zone copy" 6.5 e.Schedule.finish;
  let local = [| Bitset.of_list 2 [ 0 ] |] in
  let s0 =
    Engine.run instance realization ~placement:(Helpers.holders local) ~order:[| 0 |]
  in
  close "home-zone copy stages for free" 4.0
    (Schedule.entry s0 0).Schedule.finish

(* -------------------- placement cost accounting --------------------- *)

let replication_cost_accounting () =
  let topo = two_zone ~bandwidth:1.0 ~latency:0.5 () in
  let sizes = [| 2.0; 3.0 |] in
  let p =
    Placement.of_sets ~m:2
      [| Bitset.of_list 2 [ 0; 1 ]; Bitset.of_list 2 [ 1 ] |]
  in
  let costs = Placement.replication_costs p ~topology:topo ~sizes in
  (* Task 0 (home 0): free on 0, 0.5 + 2/1 across. Task 1 (home 1):
     its only replica is at home. *)
  close "task 0 pays the cross link" 2.5 costs.(0);
  close "task 1 is free at home" 0.0 costs.(1);
  close "total" 2.5 (Placement.replication_cost p ~topology:topo ~sizes);
  let u = Topology.uniform ~m:2 in
  close "uniform topology costs nothing" 0.0
    (Placement.replication_cost p ~topology:u ~sizes);
  raises_invalid "sizes length mismatch" (fun () ->
      Placement.replication_costs p ~topology:topo ~sizes:[| 1.0 |]);
  raises_invalid "machine-count mismatch" (fun () ->
      Placement.replication_costs p ~topology:(Topology.uniform ~m:3) ~sizes)

(* --------------------- zone-aware placements ------------------------ *)

let multi_zone ~m ~zones ~bandwidth = Topology.zoned ~m ~zones ~bandwidth ()

let zone_of_replicas topo set =
  let zs = ref [] in
  Bitset.iter (fun i -> zs := Topology.zone topo i :: !zs) set;
  List.sort_uniq Int.compare !zs

(* [min_j |M_j|]: how many simultaneous crashes every task survives. *)
let min_replication p =
  List.fold_left min max_int (List.init (Placement.n p) (Placement.replication p))

(* Whether every task keeps a replica on a machine outside [lost]. *)
let survives_loss p lost =
  List.for_all
    (fun j ->
      List.exists (fun i -> not (List.mem i lost)) (Helpers.elements (Placement.set p j)))
    (List.init (Placement.n p) Fun.id)
let zonegroup_shape () =
  let topo = multi_zone ~m:6 ~zones:3 ~bandwidth:1.0 in
  let instance =
    Instance.of_ests ~m:6 ~alpha:(Uncertainty.alpha 2.0) ~topology:topo
      (Array.init 8 (fun j -> float_of_int (j + 1)))
  in
  let p = Zone_placement.zone_group_placement ~k:2 instance in
  for j = 0 to Placement.n p - 1 do
    let set = Placement.set p j in
    checki (Printf.sprintf "task %d has 2 replicas" j) 2 (Bitset.cardinal set);
    let zs = zone_of_replicas topo set in
    checki (Printf.sprintf "task %d covers 2 zones" j) 2 (List.length zs);
    let home = Topology.zone topo (j mod 6) in
    checkb
      (Printf.sprintf "task %d keeps a home-zone replica" j)
      true (List.mem home zs)
  done;
  (* k clamped to the zone count; uniform topology degenerates to one
     replica. *)
  let huge = Zone_placement.zone_group_placement ~k:99 instance in
  checki "k clamps to the zone count" 3 (Placement.max_replication huge);
  let bare =
    Zone_placement.zone_group_placement ~k:3
      (Instance.with_topology instance None)
  in
  checki "no topology = single zone = one replica" 1
    (Placement.max_replication bare)

let localbudget_shape () =
  let topo = multi_zone ~m:6 ~zones:3 ~bandwidth:1.0 in
  let sizes = Array.init 8 (fun j -> 1.0 +. (0.5 *. float_of_int (j mod 3))) in
  let instance =
    Instance.of_ests ~m:6 ~alpha:(Uncertainty.alpha 2.0) ~sizes ~topology:topo
      (Array.init 8 (fun j -> float_of_int (j + 1)))
  in
  let home_only = Zone_placement.local_budget_placement ~budget:0.0 instance in
  for j = 0 to 7 do
    checki (Printf.sprintf "B=0: task %d home only" j) 1
      (Placement.replication home_only j);
    let home = Topology.zone topo (j mod 6) in
    checkb
      (Printf.sprintf "B=0: task %d stays in its home zone" j)
      true
      (zone_of_replicas topo (Placement.set home_only j) = [ home ])
  done;
  close "B=0 placement is free" 0.0
    (Placement.replication_cost home_only ~topology:topo ~sizes);
  let everywhere = Zone_placement.local_budget_placement ~budget:1e6 instance in
  checki "huge budget covers every zone" 3 (min_replication everywhere);
  (* The budget is a hard per-task cap. *)
  let budget = 1.2 in
  let capped = Zone_placement.local_budget_placement ~budget instance in
  let costs = Placement.replication_costs capped ~topology:topo ~sizes in
  Array.iteri
    (fun j c ->
      checkb
        (Printf.sprintf "task %d cost %.3f within budget" j c)
        true
        (c <= (budget *. sizes.(j)) +. 1e-9))
    costs

let zonegroup_cheaper_than_full () =
  let topo = multi_zone ~m:6 ~zones:3 ~bandwidth:1.0 in
  let sizes = Array.make 8 1.0 in
  let instance =
    Instance.of_ests ~m:6 ~alpha:(Uncertainty.alpha 2.0) ~sizes ~topology:topo
      (Array.init 8 (fun j -> float_of_int (j + 1)))
  in
  let zg = Zone_placement.zone_group_placement ~k:2 instance in
  let full = Placement.full ~m:6 ~n:8 in
  let cost p = Placement.replication_cost p ~topology:topo ~sizes in
  checkb "zonegroup strictly cheaper than full replication" true
    (cost zg < cost full);
  (* And still zone-fault-robust: every task survives a whole-zone
     outage (any single zone's machines failing together). *)
  List.iter
    (fun z ->
      let lost = ref [] in
      for i = 0 to 5 do
        if Topology.zone topo i = z then lost := i :: !lost
      done;
      checkb
        (Printf.sprintf "zonegroup survives zone %d outage" z)
        true
        (survives_loss zg !lost))
    [ 0; 1; 2 ]

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "topology"
    [
      ( "model",
        [
          Alcotest.test_case "constructors and cost arithmetic" `Quick
            constructors;
          Alcotest.test_case "validation rejects malformed input" `Quick
            validation;
          Alcotest.test_case "machine path lookups" `Quick machine_paths;
          Alcotest.test_case "of_spec grammar" `Quick spec_grammar;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "transfer_time path arithmetic" `Quick
            transfer_time_paths;
          QCheck_alcotest.to_alcotest prop_recovery_uniform_is_scalar;
        ] );
      ( "golden",
        [
          QCheck_alcotest.to_alcotest prop_uniform_topology_is_golden;
          QCheck_alcotest.to_alcotest prop_uniform_topology_is_golden_healthy;
        ] );
      ( "engine",
        [
          Alcotest.test_case "staging delays the first cross-zone copy" `Quick
            staging_delays_first_copy;
        ] );
      ( "costs",
        [
          Alcotest.test_case "replication cost accounting" `Quick
            replication_cost_accounting;
        ] );
      ( "placement",
        [
          Alcotest.test_case "zonegroup shape" `Quick zonegroup_shape;
          Alcotest.test_case "localbudget shape" `Quick localbudget_shape;
          Alcotest.test_case "zonegroup beats full replication on cost" `Quick
            zonegroup_cheaper_than_full;
        ] );
    ]
