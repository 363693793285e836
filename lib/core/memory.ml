module Instance = Usched_model.Instance

let pi1 = No_replication.lpt_assignment

let pi2 instance =
  Assign.lpt ~m:(Instance.m instance) ~weights:(Instance.sizes instance)

let lower_bound ~m ~sizes =
  if m < 1 then invalid_arg "Memory.lower_bound: m must be >= 1";
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let largest = Array.fold_left Float.max 0.0 sizes in
  Float.max (total /. float_of_int m) largest

let of_placement instance placement =
  Placement.memory_max placement ~sizes:(Instance.sizes instance)
