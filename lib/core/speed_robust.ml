module Instance = Usched_model.Instance
module Speed_band = Usched_model.Speed_band
module Bitset = Usched_model.Bitset
module Set_table = Usched_model.Set_table

let classes ~k instance =
  let m = Instance.m instance in
  if k < 1 || k > m then
    invalid_arg
      (Printf.sprintf "Speed_robust.classes: k=%d outside [1, %d]" k m);
  let band = Instance.speed_band_or_nominal instance in
  let by_speed = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare (Speed_band.lo band b) (Speed_band.lo band a) with
      | 0 -> Int.compare a b
      | c -> c)
    by_speed;
  Array.init k (fun c ->
      let start = c * m / k and stop = (c + 1) * m / k in
      Array.sub by_speed start (stop - start))

let placement ~k instance =
  let n = Instance.n instance and m = Instance.m instance in
  let band = Instance.speed_band_or_nominal instance in
  let groups = classes ~k instance in
  (* Pessimistic finish times: work already charged divided by the
     slowest in-band speed — the schedule the adversary would force. *)
  let loads = Array.make m 0.0 in
  let sets = Array.make n (Bitset.create m) in
  (* Tasks with the same per-class machine choice share one interned
     set: at most the product of the class sizes distinct sets exist,
     so list-priority dispatch can bucket tasks by set. *)
  let interned = Set_table.create () in
  let chosen = Array.make k 0 in
  let order = Instance.lpt_order instance in
  Array.iter
    (fun j ->
      let est = Instance.est instance j in
      Array.iteri
        (fun c group ->
          let best = ref group.(0) and best_finish = ref infinity in
          Array.iter
            (fun i ->
              let finish = loads.(i) +. (est /. Speed_band.lo band i) in
              if finish < !best_finish then begin
                best := i;
                best_finish := finish
              end)
            group;
          chosen.(c) <- !best;
          (* Only one of the k replicas will execute the task; charge the
             expected share so classes stay balanced rather than every
             class paying the full estimate. *)
          loads.(!best) <-
            loads.(!best) +. (est /. float_of_int k /. Speed_band.lo band !best))
        groups;
      let set = Bitset.create m in
      Array.iter (Bitset.add set) chosen;
      sets.(j) <- Set_table.get interned (Set_table.intern interned set))
    order;
  Placement.of_sets ~m sets
