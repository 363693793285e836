module Instance = Usched_model.Instance
module Bitset = Usched_model.Bitset

exception Infeasible of string

(* Repair an assignment whose memory exceeds the budget somewhere: move
   the smallest-estimate tasks off over-budget machines onto machines
   with enough slack (first-fit by decreasing slack). *)
let repair_to_budget ~budget instance assignment =
  let n = Instance.n instance and m = Instance.m instance in
  let mem = Array.make m 0.0 in
  for j = 0 to n - 1 do
    mem.(assignment.(j)) <- mem.(assignment.(j)) +. Instance.size instance j
  done;
  let moved = ref true in
  while Array.exists (fun x -> x > budget +. 1e-9) mem && !moved do
    moved := false;
    for i = 0 to m - 1 do
      if mem.(i) > budget +. 1e-9 then begin
        (* Candidate tasks on i, smallest estimate first (cheapest to
           displace for the makespan). *)
        let candidates = ref [] in
        for j = 0 to n - 1 do
          if assignment.(j) = i then candidates := j :: !candidates
        done;
        let candidates =
          List.sort
            (fun a b ->
              Float.compare (Instance.est instance a) (Instance.est instance b))
            !candidates
        in
        let try_move j =
          let size = Instance.size instance j in
          let target = ref (-1) in
          for i' = 0 to m - 1 do
            if i' <> i
               && mem.(i') +. size <= budget +. 1e-9
               && (!target < 0 || mem.(i') < mem.(!target))
            then target := i'
          done;
          if !target >= 0 then begin
            assignment.(j) <- !target;
            mem.(i) <- mem.(i) -. size;
            mem.(!target) <- mem.(!target) +. size;
            moved := true;
            true
          end
          else false
        in
        let rec shed = function
          | [] -> ()
          | j :: rest ->
              if mem.(i) > budget +. 1e-9 then begin
                ignore (try_move j);
                shed rest
              end
        in
        shed candidates
      end
    done
  done;
  if Array.exists (fun x -> x > budget +. 1e-9) mem then
    raise
      (Infeasible
         "memory budget too small for any replica-free placement of this instance")

let placement ~budget instance =
  if not (budget > 0.0) then invalid_arg "Memory_budget: budget must be > 0";
  let n = Instance.n instance and m = Instance.m instance in
  if Instance.max_size instance > budget +. 1e-9 then
    raise (Infeasible "a single task exceeds the per-machine budget");
  if Instance.total_size instance > (float_of_int m *. budget) +. 1e-9 then
    raise (Infeasible "total data exceeds aggregate memory");
  let base = No_replication.lpt_assignment instance in
  let assignment = Array.copy base.Assign.assignment in
  repair_to_budget ~budget instance assignment;
  let sets = Array.init n (fun j -> Bitset.singleton m assignment.(j)) in
  let mem = Array.make m 0.0 in
  Array.iteri
    (fun j i -> mem.(i) <- mem.(i) +. Instance.size instance j)
    assignment;
  (* Spend the remaining headroom: rounds over tasks in decreasing
     estimate order, each round granting at most one extra replica per
     task, placed on the machine with the most slack. *)
  let order = Instance.lpt_order instance in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun j ->
        let size = Instance.size instance j in
        if Bitset.cardinal sets.(j) < m then begin
          let target = ref (-1) in
          for i = 0 to m - 1 do
            if (not (Bitset.mem sets.(j) i))
               && mem.(i) +. size <= budget +. 1e-9
               && (!target < 0 || mem.(i) < mem.(!target))
            then target := i
          done;
          if !target >= 0 then begin
            Bitset.add sets.(j) !target;
            mem.(!target) <- mem.(!target) +. size;
            progress := true
          end
        end)
      order
  done;
  Placement.of_sets ~m sets

let max_memory_load instance placement =
  Placement.memory_max placement ~sizes:(Instance.sizes instance)
