module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Topology = Usched_model.Topology

type t = { m : int; sets : Bitset.t array }

let of_sets ~m sets =
  Array.iteri
    (fun j set ->
      if Bitset.capacity set <> m then
        invalid_arg
          (Printf.sprintf "Placement.of_sets: task %d capacity mismatch" j);
      if Bitset.is_empty set then
        invalid_arg (Printf.sprintf "Placement.of_sets: task %d placed nowhere" j))
    sets;
  { m; sets = Array.copy sets }

let singletons ~m assignment =
  of_sets ~m (Array.map (fun i -> Bitset.singleton m i) assignment)

let full ~m ~n = of_sets ~m (Array.init n (fun _ -> Bitset.full m))

let of_group_assignment ~m ~groups assignment =
  let group_sets =
    Array.map (fun machines -> Bitset.of_list m (Array.to_list machines)) groups
  in
  of_sets ~m (Array.map (fun g -> group_sets.(g)) assignment)

let n t = Array.length t.sets
let set t j = t.sets.(j)
let sets t = Array.copy t.sets
(* Sets hash and compare structurally: two tasks share a group exactly
   when their sets have the same members. *)
let distinct_sets t =
  let index = Hashtbl.create 16 in
  let groups = ref [] and count = ref 0 in
  let group_of =
    Array.map
      (fun set ->
        match Hashtbl.find_opt index set with
        | Some g -> g
        | None ->
            let g = !count in
            Hashtbl.add index set g;
            groups := set :: !groups;
            incr count;
            g)
      t.sets
  in
  (Array.of_list (List.rev !groups), group_of)

let allowed t ~task ~machine = Bitset.mem t.sets.(task) machine
let replication t j = Bitset.cardinal t.sets.(j)

let max_replication t =
  Array.fold_left (fun acc set -> Stdlib.max acc (Bitset.cardinal set)) 0 t.sets

let total_replicas t =
  Array.fold_left (fun acc set -> acc + Bitset.cardinal set) 0 t.sets

(* One closure for the whole scan, hoisted out of the task loop: it
   reads the current task's size through [j], so no closure (and no
   boxed size) is allocated per task. *)
let memory_loads t ~(sizes : float array) =
  if Array.length sizes <> Array.length t.sets then
    invalid_arg "Placement.memory_loads: sizes length mismatch";
  let loads = Array.make t.m 0.0 in
  let j = ref 0 in
  let add i = loads.(i) <- loads.(i) +. sizes.(!j) in
  for k = 0 to Array.length t.sets - 1 do
    j := k;
    Bitset.iter add t.sets.(k)
  done;
  loads

let memory_max t ~sizes =
  Array.fold_left Float.max 0.0 (memory_loads t ~sizes)

let check_costs t ~topology ~sizes =
  if Array.length sizes <> Array.length t.sets then
    invalid_arg "Placement.replication_costs: sizes length mismatch";
  if Topology.m topology <> t.m then
    invalid_arg
      (Printf.sprintf
         "Placement.replication_costs: topology covers %d machines, placement \
          has %d"
         (Topology.m topology) t.m)

(* Every staging time on a one-zone topology is exactly [0.0], so every
   per-task sum is [0.0] without walking the replicas. *)
let replication_costs t ~topology ~sizes =
  check_costs t ~topology ~sizes;
  if Topology.is_uniform topology then Array.make (Array.length t.sets) 0.0
  else
    Array.mapi
      (fun j set ->
        let src = j mod t.m and size = sizes.(j) in
        let acc = ref 0.0 in
        Bitset.iter
          (fun dst -> acc := !acc +. Topology.staging_time topology ~src ~dst ~size)
          set;
        !acc)
      t.sets

let replication_cost t ~topology ~sizes =
  if Topology.is_uniform topology then begin
    check_costs t ~topology ~sizes;
    0.0
  end
  else Array.fold_left ( +. ) 0.0 (replication_costs t ~topology ~sizes)

(* Any single crash strands a task whose data lives on one machine;
   with [m = 1] that is every task. *)
let survives_any_failure t =
  t.m > 1 && Array.for_all (fun set -> Bitset.cardinal set >= 2) t.sets
