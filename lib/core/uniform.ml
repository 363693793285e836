module Instance = Usched_model.Instance

let check_speeds ~m speeds =
  if Array.length speeds <> m then
    invalid_arg "Uniform: speeds length differs from machine count";
  for i = 0 to m - 1 do
    let s = speeds.(i) in
    if not (Float.is_finite s && s > 0.0) then
      invalid_arg "Uniform: speeds must be finite and > 0"
  done

let lpt_assignment ~speeds instance =
  let m = Instance.m instance in
  check_speeds ~m speeds;
  let finish = Array.make m 0.0 in
  let assignment = Array.make (Instance.n instance) 0 in
  Array.iter
    (fun j ->
      let est = Instance.est instance j in
      let best = ref 0 in
      let best_finish = ref infinity in
      for i = 0 to m - 1 do
        let candidate = finish.(i) +. (est /. speeds.(i)) in
        if candidate < !best_finish then begin
          best := i;
          best_finish := candidate
        end
      done;
      assignment.(j) <- !best;
      finish.(!best) <- !best_finish)
    (Instance.lpt_order instance);
  { Assign.assignment; loads = finish }

(* [top_desc src k] is the [k] largest values of [src] in descending
   order: the first [k] entries of a full descending sort, up to which
   of several equal values sits where, which no sum below can see (even
   +0 and -0 add alike). A size-[k] min-heap keeps the candidates (its
   root is the smallest kept value, so most entries are rejected by one
   comparison); heapsorting it in place then leaves it descending. The
   loops index float arrays directly, so no float is boxed. *)
let top_desc (src : float array) k =
  let heap = Array.make k 0.0 in
  let sift_down size i0 =
    let x = heap.(i0) in
    let i = ref i0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < x then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- x
  in
  if k > 0 then begin
    Array.blit src 0 heap 0 k;
    for i = (k / 2) - 1 downto 0 do
      sift_down k i
    done;
    for j = k to Array.length src - 1 do
      if src.(j) > heap.(0) then begin
        heap.(0) <- src.(j);
        sift_down k 0
      end
    done;
    for size = k - 1 downto 1 do
      let min = heap.(0) in
      heap.(0) <- heap.(size);
      heap.(size) <- min;
      sift_down size 0
    done
  end;
  heap

let check_times p =
  for j = 0 to Array.length p - 1 do
    let x = p.(j) in
    if not (Float.is_finite x && x >= 0.0) then
      invalid_arg "Uniform.lower_bound: task times must be finite and >= 0"
  done

let total_work p =
  let total = ref 0.0 in
  for j = 0 to Array.length p - 1 do
    total := !total +. p.(j)
  done;
  !total

(* The bound from the [k = min m n] largest task times, descending in
   [top_p] (which may hold more), and the total work. *)
let bound_of_top ~speeds ~top_p ~k ~total =
  let m = Array.length speeds in
  let sorted_s = top_desc speeds m in
  let bound = ref 0.0 in
  let work = ref 0.0 and speed = ref 0.0 in
  for i = 0 to k - 1 do
    work := !work +. top_p.(i);
    speed := !speed +. sorted_s.(i);
    (* The i+1 largest tasks can at best share the i+1 fastest machines.
       [Float.max] spelled out so no float is boxed: a NaN ratio (from
       sums that overflow to infinity) sticks, and no ratio is -0. *)
    let r = !work /. !speed in
    if !bound = !bound && not (r <= !bound) then bound := r
  done;
  (* All the work on all the machines. *)
  let total_speed = ref 0.0 in
  for i = 0 to m - 1 do
    total_speed := !total_speed +. speeds.(i)
  done;
  Float.max !bound (total /. !total_speed)

let lower_bound ~speeds p =
  let m = Array.length speeds in
  check_speeds ~m speeds;
  check_times p;
  let k = Stdlib.min m (Array.length p) in
  bound_of_top ~speeds ~top_p:(top_desc p k) ~k ~total:(total_work p)

(* A prefix of the full descending sort holds the same values as
   [top_desc p k], so the sums, and the bound, are bit for bit
   [lower_bound]'s. *)
let lower_bound_of p =
  check_times p;
  let n = Array.length p in
  let sorted = top_desc p n and total = total_work p in
  fun ~speeds ->
    let m = Array.length speeds in
    check_speeds ~m speeds;
    bound_of_top ~speeds ~top_p:sorted ~k:(Stdlib.min m n) ~total

let lpt_placement ~speeds instance =
  Placement.singletons ~m:(Instance.m instance)
    (lpt_assignment ~speeds instance).Assign.assignment

let full_placement ~speeds instance =
  check_speeds ~m:(Instance.m instance) speeds;
  Placement.full ~m:(Instance.m instance) ~n:(Instance.n instance)

let group_placement ~speeds ~k instance =
  let m = Instance.m instance in
  check_speeds ~m speeds;
  let groups = Group_replication.machine_groups ~m ~k in
  let group_speed =
    Array.map
      (fun machines ->
        Array.fold_left (fun acc i -> acc +. speeds.(i)) 0.0 machines)
      groups
  in
  (* Greedy over groups: place each task where its estimated finish
     (group load / group speed) stays smallest. *)
  let loads = Array.make k 0.0 in
  let assignment = Array.make (Instance.n instance) 0 in
  Array.iteri
    (fun j _ ->
      let est = Instance.est instance j in
      let best = ref 0 and best_cost = ref infinity in
      for g = 0 to k - 1 do
        let cost = (loads.(g) +. est) /. group_speed.(g) in
        if cost < !best_cost then begin
          best := g;
          best_cost := cost
        end
      done;
      assignment.(j) <- !best;
      loads.(!best) <- loads.(!best) +. est)
    (Instance.tasks instance);
  Placement.of_group_assignment ~m ~groups assignment
