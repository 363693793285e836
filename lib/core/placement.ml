module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Set_table = Usched_model.Set_table
module Topology = Usched_model.Topology

(* The whole-placement scans read a summary built once, on first use:
   the distinct sets with each task's index into them, and the machine
   classes. Two machines are in the same class when they lie in exactly
   the same distinct sets; each class is represented by its lowest
   machine. The summary is immutable once built, so domains that race to
   build it store equal values and any one of them may win. *)
type summary = {
  groups : Bitset.t array;  (** distinct sets, in order of first occurrence *)
  group_of : int array;  (** task -> its set's index in [groups] *)
  counts : int array;  (** set -> how many tasks have it *)
  cards : int array;  (** set -> its cardinality *)
  reps_in : int array array;  (** set -> the representatives of its classes *)
  rep_of : int array;  (** machine -> its class's representative *)
}

type t = { m : int; sets : Bitset.t array; summary : summary option Atomic.t }

let of_sets ~m sets =
  Array.iteri
    (fun j set ->
      if Bitset.capacity set <> m then
        invalid_arg
          (Printf.sprintf "Placement.of_sets: task %d capacity mismatch" j);
      if Bitset.is_empty set then
        invalid_arg (Printf.sprintf "Placement.of_sets: task %d placed nowhere" j))
    sets;
  { m; sets; summary = Atomic.make None }

(* One singleton set per machine and one full set, shared by every task
   placed on them. *)
let pinned ~m ~everywhere assignment =
  let machine = Array.init m (Bitset.singleton m) and all = Bitset.full m in
  of_sets ~m
    (Array.mapi (fun j i -> if everywhere j then all else machine.(i)) assignment)

let singletons ~m assignment = pinned ~m ~everywhere:(fun _ -> false) assignment

let pinned_or_full ~m ~replicated assignment =
  pinned ~m ~everywhere:(Array.get replicated) assignment

let full ~m ~n = of_sets ~m (Array.make n (Bitset.full m))

let of_group_assignment ~m ~groups assignment =
  let group_sets =
    Array.map (fun machines -> Bitset.of_list m (Array.to_list machines)) groups
  in
  of_sets ~m (Array.map (fun g -> group_sets.(g)) assignment)

let n t = Array.length t.sets
let set t j = t.sets.(j)
let sets t = t.sets

(* Signatures hash on every element: the generic hash reads only a
   list's first few, on which many signatures may agree. *)
module Signatures = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h g -> (h * 31) + g) 0 l land max_int
end)

let summarize t =
  let table, group_of = Set_table.intern_all t.sets in
  let groups = Set_table.to_array table in
  let g_count = Array.length groups in
  let counts = Array.make g_count 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) group_of;
  let cards = Array.map Bitset.cardinal groups in
  (* A machine's signature: the sets it lies in, newest first. *)
  let signature = Array.make t.m [] in
  Array.iteri
    (fun g set -> Bitset.iter (fun i -> signature.(i) <- g :: signature.(i)) set)
    groups;
  let rep_by_signature = Signatures.create 16 in
  let rep_of =
    Array.mapi
      (fun i sg ->
        match Signatures.find_opt rep_by_signature sg with
        | Some r -> r
        | None ->
            Signatures.add rep_by_signature sg i;
            i)
      signature
  in
  let reps_in =
    Array.map
      (fun set ->
        Array.of_list
          (Bitset.fold (fun acc i -> if rep_of.(i) = i then i :: acc else acc) [] set))
      groups
  in
  { groups; group_of; counts; cards; reps_in; rep_of }

let summary t =
  match Atomic.get t.summary with
  | Some s -> s
  | None ->
      let s = summarize t in
      Atomic.set t.summary (Some s);
      s

let distinct_sets t =
  let s = summary t in
  (Array.copy s.groups, Array.copy s.group_of)

let allowed t ~task ~machine = Bitset.mem t.sets.(task) machine
let replication t j = Bitset.cardinal t.sets.(j)
let max_replication t = Array.fold_left Stdlib.max 0 (summary t).cards

let total_replicas t =
  let s = summary t in
  let total = ref 0 in
  Array.iteri (fun g card -> total := !total + (card * s.counts.(g))) s.cards;
  !total

(* Machine [i] receives [s_j] for every task [j] whose set holds it, in
   task order, and so does every machine of its class: the same floats
   added in the same order from [0.0]. One accumulator per class, kept in
   the representative's own slot and copied to the other members, is
   therefore bit-identical to the per-replica walk, at one addition per
   class of the task's set instead of one per replica. *)
let memory_loads t ~(sizes : float array) =
  if Array.length sizes <> Array.length t.sets then
    invalid_arg "Placement.memory_loads: sizes length mismatch";
  let s = summary t in
  let loads = Array.make t.m 0.0 in
  for j = 0 to Array.length sizes - 1 do
    let reps = s.reps_in.(s.group_of.(j)) in
    let size = sizes.(j) in
    for r = 0 to Array.length reps - 1 do
      let i = reps.(r) in
      loads.(i) <- loads.(i) +. size
    done
  done;
  for i = 0 to t.m - 1 do
    loads.(i) <- loads.(s.rep_of.(i))
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
