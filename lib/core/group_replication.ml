module Instance = Usched_model.Instance

let machine_groups ~m ~k =
  if k < 1 || k > m then invalid_arg "Group_replication: need 1 <= k <= m";
  let base = m / k and extra = m mod k in
  let start = ref 0 in
  Array.init k (fun g ->
      let count = base + if g < extra then 1 else 0 in
      let machines = Array.init count (fun i -> !start + i) in
      start := !start + count;
      machines)

let group_assignment ~order ~k instance =
  let m = Instance.m instance in
  let groups = machine_groups ~m ~k in
  let counts = Array.map Array.length groups in
  let weights = Instance.ests instance in
  let n = Instance.n instance in
  let loads = Array.make k 0.0 in
  let assignment = Array.make n 0 in
  (* Greedy: place on the group whose per-machine load after placement is
     smallest. With k | m all groups have equal size and this is exactly
     the paper's List Scheduling over groups. *)
  let place j =
    let best = ref 0 in
    let best_cost = ref infinity in
    for g = 0 to k - 1 do
      let cost = (loads.(g) +. weights.(j)) /. float_of_int counts.(g) in
      if cost < !best_cost then begin
        best := g;
        best_cost := cost
      end
    done;
    assignment.(j) <- !best;
    loads.(!best) <- loads.(!best) +. weights.(j)
  in
  (match order with
  | `Submission ->
      for j = 0 to n - 1 do
        place j
      done
  | `Lpt -> Array.iter place (Instance.lpt_order instance));
  assignment

let placement ~order ~k instance =
  let m = Instance.m instance in
  let groups = machine_groups ~m ~k in
  let assignment = group_assignment ~order ~k instance in
  Placement.of_group_assignment ~m ~groups assignment
