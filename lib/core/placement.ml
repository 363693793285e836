module Bitset = Usched_model.Bitset
module Holders = Usched_model.Holders
module Instance = Usched_model.Instance
module Set_table = Usched_model.Set_table
module Topology = Usched_model.Topology

(* A placement is its holder sets, interned once when it is built: the
   distinct sets and each task's index into them. The whole-placement
   scans read them in place, and a summary built once, on first use:
   the machine classes. Two machines are in the same class when they
   lie in exactly the same distinct sets; each class is represented by
   its lowest machine. The summary is immutable once built, so domains
   that race to build it store equal values and any one of them may
   win. *)
type summary = {
  counts : int array;  (** set -> how many tasks have it *)
  cards : int array;  (** set -> its cardinality *)
  reps_in : int array array;  (** set -> the representatives of its classes *)
  rep_of : int array;  (** machine -> its class's representative *)
}

type t = { m : int; holders : Holders.t; summary : summary option Atomic.t }

let make ~m holders =
  (match Holders.first_misplaced ~m holders with
  | None -> ()
  | Some j ->
      if Bitset.capacity (Holders.set holders j) <> m then
        invalid_arg (Printf.sprintf "Placement.of_sets: task %d capacity mismatch" j);
      invalid_arg (Printf.sprintf "Placement.of_sets: task %d placed nowhere" j));
  { m; holders; summary = Atomic.make None }

let of_sets ~m sets = make ~m (Holders.of_sets sets)

(* One singleton set per machine, label [i] for machine [i], and with
   [~full] the full set as label [m]: the assignment becomes the index
   in place. *)
let pinned ~m ~full labels =
  let sets =
    Array.init (if full then m + 1 else m) (fun i ->
        if i < m then Bitset.singleton m i else Bitset.full m)
  in
  make ~m (Holders.of_labels sets labels)

let singletons ~m assignment = pinned ~m ~full:false assignment

let pinned_or_full ~m ~replicated assignment =
  if Array.length replicated <> Array.length assignment then
    invalid_arg "Placement.pinned_or_full: replicated length mismatch";
  Array.iteri
    (fun j r ->
      if r then assignment.(j) <- m
      else if assignment.(j) >= m then
        invalid_arg (Printf.sprintf "Placement.pinned_or_full: task %d has machine %d" j
          assignment.(j)))
    replicated;
  pinned ~m ~full:true assignment

let full ~m ~n = make ~m (Holders.of_labels [| Bitset.full m |] (Array.make n 0))

let of_group_assignment ~m ~groups assignment =
  let group_sets =
    Array.map (fun machines -> Bitset.of_list m (Array.to_list machines)) groups
  in
  make ~m (Holders.of_labels group_sets assignment)

let n t = Holders.n t.holders
let set t j = Holders.set t.holders j
let sets t = t.holders

(* Signatures hash on every element: the generic hash reads only a
   list's first few, on which many signatures may agree. *)
module Signatures = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h g -> (h * 31) + g) 0 l land max_int
end)

let summarize t =
  let table = t.holders.Holders.table in
  let groups = Set_table.to_array table in
  let g_count = Array.length groups in
  let counts = Array.make g_count 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) t.holders.Holders.index;
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
  { counts; cards; reps_in; rep_of }

let summary t =
  match Atomic.get t.summary with
  | Some s -> s
  | None ->
      let s = summarize t in
      Atomic.set t.summary (Some s);
      s

let allowed t ~task ~machine = Bitset.mem (set t task) machine
let replication t j = Bitset.cardinal (set t j)

(* Every interned set has a task, so the distinct sets decide both. *)
let fold_cards f init t =
  let table = t.holders.Holders.table in
  let acc = ref init in
  for g = 0 to Set_table.count table - 1 do
    acc := f !acc (Bitset.cardinal (Set_table.get table g))
  done;
  !acc

let max_replication t = fold_cards Stdlib.max 0 t

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
  if Array.length sizes <> n t then
    invalid_arg "Placement.memory_loads: sizes length mismatch";
  let s = summary t and index = t.holders.Holders.index in
  let loads = Array.make t.m 0.0 in
  for j = 0 to Array.length sizes - 1 do
    let reps = s.reps_in.(index.(j)) in
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
  if Array.length sizes <> n t then
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
  if Topology.is_uniform topology then Array.make (n t) 0.0
  else
    Array.init (n t) (fun j ->
        let src = j mod t.m and size = sizes.(j) in
        let acc = ref 0.0 in
        Bitset.iter
          (fun dst -> acc := !acc +. Topology.staging_time topology ~src ~dst ~size)
          (set t j);
        !acc)

let replication_cost t ~topology ~sizes =
  if Topology.is_uniform topology then begin
    check_costs t ~topology ~sizes;
    0.0
  end
  else Array.fold_left ( +. ) 0.0 (replication_costs t ~topology ~sizes)

(* Any single crash strands a task whose data lives on one machine;
   with [m = 1] that is every task. *)
let survives_any_failure t =
  t.m > 1 && fold_cards (fun ok card -> ok && card >= 2) true t
