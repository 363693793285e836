module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset

let extreme_realization instance highs =
  let a = Instance.alpha_value instance in
  Realization.of_factors instance
    (Array.map (fun high -> if high then a else 1.0 /. a) highs)

let inflate_machine machine instance placement =
  let n = Instance.n instance in
  let highs =
    Array.init n (fun j -> Placement.allowed placement ~task:j ~machine)
  in
  extreme_realization instance highs

let theorem1 instance placement =
  let m = Instance.m instance and n = Instance.n instance in
  (* Estimated load of tasks pinned to each machine. *)
  let pinned_load = Array.make m 0.0 in
  for j = 0 to n - 1 do
    if Placement.replication placement j = 1 then begin
      let i = Bitset.choose (Placement.set placement j) in
      pinned_load.(i) <- pinned_load.(i) +. Instance.est instance j
    end
  done;
  let target = ref 0 in
  for i = 1 to m - 1 do
    if pinned_load.(i) > pinned_load.(!target) then target := i
  done;
  let highs =
    Array.init n (fun j ->
        Placement.replication placement j = 1
        && Placement.allowed placement ~task:j ~machine:!target)
  in
  extreme_realization instance highs

let ratio ~run ~opt realization =
  let makespan = Schedule.makespan (run realization) in
  let optimum = opt (Realization.actuals realization) in
  if optimum <= 0.0 then invalid_arg "Adversary.ratio: non-positive optimum";
  makespan /. optimum

let greedy_flip ~run ~opt instance =
  let n = Instance.n instance in
  let highs = Array.make n false in
  let best = ref (ratio ~run ~opt (extreme_realization instance highs)) in
  for _ = 1 to 3 do
    for j = 0 to n - 1 do
      highs.(j) <- not highs.(j);
      let candidate = ratio ~run ~opt (extreme_realization instance highs) in
      if candidate > !best then best := candidate
      else highs.(j) <- not highs.(j)
    done
  done;
  extreme_realization instance highs

let exhaustive ~run ~opt instance =
  let n = Instance.n instance in
  if n > 20 then invalid_arg "Adversary.exhaustive: instance too large";
  let best_ratio = ref neg_infinity in
  let best_mask = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let highs = Array.init n (fun j -> mask land (1 lsl j) <> 0) in
    let candidate = ratio ~run ~opt (extreme_realization instance highs) in
    if candidate > !best_ratio then begin
      best_ratio := candidate;
      best_mask := mask
    end
  done;
  let highs = Array.init n (fun j -> !best_mask land (1 lsl j) <> 0) in
  (extreme_realization instance highs, !best_ratio)
