module Instance = Usched_model.Instance
module Bitset = Usched_model.Bitset

let placement ~budgets instance =
  let n = Instance.n instance and m = Instance.m instance in
  if Array.length budgets <> n then
    invalid_arg "Budgeted.placement: budgets length differs from instance";
  let loads = Array.make m 0.0 in
  let sets = Array.make n (Bitset.create m) in
  let order = Instance.lpt_order instance in
  (* Only one machine's load changes per task, so a single insertion pass
     keeps [by_load] sorted by (estimated load, id) in O(m) per task
     instead of re-sorting. *)
  let by_load = Array.init m (fun i -> i) in
  let resort_first () =
    let moved = by_load.(0) in
    let precedes a b =
      loads.(a) < loads.(b) || (Float.equal loads.(a) loads.(b) && a < b)
    in
    let pos = ref 0 in
    while !pos + 1 < m && precedes by_load.(!pos + 1) moved do
      by_load.(!pos) <- by_load.(!pos + 1);
      incr pos
    done;
    by_load.(!pos) <- moved
  in
  Array.iter
    (fun j ->
      let budget = Stdlib.max 1 (Stdlib.min m budgets.(j)) in
      (* The first [budget] machines by load hold the replicas; the very
         first runs the primary copy. *)
      let set = Bitset.create m in
      for rank = 0 to budget - 1 do
        Bitset.add set by_load.(rank)
      done;
      sets.(j) <- set;
      loads.(by_load.(0)) <- loads.(by_load.(0)) +. Instance.est instance j;
      resort_first ())
    order;
  Placement.of_sets ~m sets

let proportional_placement ~fraction instance =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Budgeted.proportional_placement: fraction out of [0, 1]";
  let n = Instance.n instance and m = Instance.m instance in
  let critical = int_of_float (Float.round (fraction *. float_of_int n)) in
  let order = Instance.lpt_order instance in
  let budgets = Array.make n 1 in
  for rank = 0 to Stdlib.min critical n - 1 do
    budgets.(order.(rank)) <- m
  done;
  placement ~budgets instance
