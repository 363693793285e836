module Instance = Usched_model.Instance

let placement ~count instance =
  let m = Instance.m instance and n = Instance.n instance in
  let count = Stdlib.max 0 (Stdlib.min n count) in
  let order = Instance.lpt_order instance in
  let replicated = Array.make n false in
  for rank = 0 to count - 1 do
    replicated.(order.(rank)) <- true
  done;
  let lpt = No_replication.lpt_assignment instance in
  Placement.pinned_or_full ~m ~replicated lpt.Assign.assignment
