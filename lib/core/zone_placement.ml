(* Zone-aware phase-1 placements. See zone_placement.mli. *)

module Instance = Usched_model.Instance
module Topology = Usched_model.Topology
module Bitset = Usched_model.Bitset

(* Machines of each zone, ascending ids (ties in the least-loaded scans
   below resolve to the lowest id because members are scanned in
   order). *)
let zone_machines topo =
  let m = Topology.m topo in
  let z = Topology.zones topo in
  let counts = Array.make z 0 in
  for i = 0 to m - 1 do
    let zi = Topology.zone topo i in
    counts.(zi) <- counts.(zi) + 1
  done;
  let members = Array.init z (fun zi -> Array.make counts.(zi) 0) in
  let fill = Array.make z 0 in
  for i = 0 to m - 1 do
    let zi = Topology.zone topo i in
    members.(zi).(fill.(zi)) <- i;
    fill.(zi) <- fill.(zi) + 1
  done;
  members

(* Zones ordered by the cost of staging [size] data units out of [home]:
   the home zone first (its copy is free — the data is born there), then
   cheapest links first, ids breaking ties. *)
let zones_by_cost topo ~home ~size =
  let order = Array.init (Topology.zones topo) (fun zi -> zi) in
  Array.sort
    (fun a b ->
      if a = home then -1
      else if b = home then 1
      else
        match
          Float.compare
            (Topology.zone_cost topo ~src:home ~dst:a ~size)
            (Topology.zone_cost topo ~src:home ~dst:b ~size)
        with
        | 0 -> Int.compare a b
        | c -> c)
    order;
  order

let least_loaded (loads : float array) members =
  let best = ref members.(0) in
  Array.iter (fun i -> if loads.(i) < loads.(!best) then best := i) members;
  !best

(* Shared greedy core: in LPT order, [pick_zones] chooses which zones
   get a replica of each task; within every chosen zone the replica
   lands on the least est-loaded machine, which is then charged the
   expected execution share [est / degree] (only one replica runs the
   task — mirroring the speed-robust builder's accounting). *)
let greedy ~pick_zones instance =
  let n = Instance.n instance and m = Instance.m instance in
  let topo = Instance.topology_or_uniform instance in
  let members = zone_machines topo in
  let loads = Array.make m 0.0 in
  let sets = Array.make n (Bitset.create m) in
  Array.iter
    (fun j ->
      let est = Instance.est instance j in
      let size = Instance.size instance j in
      let home = Topology.zone topo (j mod m) in
      let zorder = zones_by_cost topo ~home ~size in
      let chosen = pick_zones topo ~home ~size zorder in
      let deg = Array.length chosen in
      let share = est /. float_of_int deg in
      let set = Bitset.create m in
      Array.iter
        (fun zi ->
          let i = least_loaded loads members.(zi) in
          Bitset.add set i;
          loads.(i) <- loads.(i) +. share)
        chosen;
      sets.(j) <- set)
    (Instance.lpt_order instance);
  Placement.of_sets ~m sets

let zone_group_placement ~k instance =
  if k < 1 then
    invalid_arg
      (Printf.sprintf "Zone_placement.zone_group_placement: k=%d must be >= 1"
         k);
  greedy instance
    ~pick_zones:(fun _topo ~home:_ ~size:_ zorder ->
      Array.sub zorder 0 (Stdlib.min k (Array.length zorder)))

let local_budget_placement ~budget instance =
  if Float.is_nan budget || not (Float.is_finite budget) || budget < 0.0 then
    invalid_arg
      (Printf.sprintf
         "Zone_placement.local_budget_placement: budget %g must be finite and \
          >= 0"
         budget);
  greedy instance
    ~pick_zones:(fun topo ~home ~size zorder ->
      let cap = budget *. size in
      let chosen = Array.make (Array.length zorder) (-1) in
      let deg = ref 0 and spent = ref 0.0 in
      Array.iter
        (fun zi ->
          let cost =
            if zi = home then 0.0
            else Topology.zone_cost topo ~src:home ~dst:zi ~size
          in
          (* The home zone is always in (degree >= 1, and its copy is
             free); other zones join cheapest-first while the cumulative
             transfer cost stays within [budget * size]. *)
          if zi = home || !spent +. cost <= cap then begin
            chosen.(!deg) <- zi;
            incr deg;
            spent := !spent +. cost
          end)
        zorder;
      Array.sub chosen 0 !deg)
