module Instance = Usched_model.Instance
module Failure = Usched_model.Failure
module Bitset = Usched_model.Bitset

exception Infeasible of string

let placement ?budget ~target instance =
  if Float.is_nan target || not (target > 0.0 && target < 1.0) then
    invalid_arg
      (Printf.sprintf "Reliability: target %g must be in (0, 1)" target);
  (match budget with
  | Some b when Float.is_nan b || not (b > 0.0 && Float.is_finite b) ->
      invalid_arg
        (Printf.sprintf "Reliability: budget %g must be positive and finite" b)
  | _ -> ());
  let n = Instance.n instance and m = Instance.m instance in
  let profile = Instance.failure_or_default instance in
  let log_eps =
    if n = 0 then 0.0
    else Float.log ((1.0 -. target) /. float_of_int n)
  in
  (match budget with
  | Some b when Instance.max_size instance > b +. 1e-9 ->
      raise (Infeasible "a single task exceeds the per-machine budget")
  | _ -> ());
  let loads = Array.make m 0.0 in
  let mem = Array.make m 0.0 in
  let sets = Array.make n (Bitset.create m) in
  let fits =
    match budget with
    | None -> fun _ ~size:_ -> true
    | Some b -> fun i ~size -> mem.(i) +. size <= b +. 1e-9
  in
  Array.iter
    (fun j ->
      let size = Instance.size instance j in
      (* Primary on the least estimated-loaded machine with headroom
         (ties by id): reliability decides the set's size, load balance
         its anchor, so makespans stay close to Budgeted's. *)
      let primary = ref (-1) in
      for i = 0 to m - 1 do
        if fits i ~size && (!primary < 0 || loads.(i) < loads.(!primary)) then
          primary := i
      done;
      if !primary < 0 then
        raise
          (Infeasible
             (Printf.sprintf
                "no machine has %g memory headroom left for task %d" size j));
      let set = Bitset.create m in
      Bitset.add set !primary;
      loads.(!primary) <- loads.(!primary) +. Instance.est instance j;
      mem.(!primary) <- mem.(!primary) +. size;
      let loss = ref (Failure.log_loss profile !primary) in
      (* Grow by the most reliable remaining machine (ties by memory
         load, then id) until the task's loss probability fits its
         budget share; sums of logs stand in for products of p's. *)
      while !loss > log_eps do
        let next = ref (-1) in
        for i = 0 to m - 1 do
          if (not (Bitset.mem set i)) && fits i ~size then
            if !next < 0 then next := i
            else
              let pi = Failure.p profile i and pb = Failure.p profile !next in
              if pi < pb || (Float.equal pi pb && mem.(i) < mem.(!next)) then
                next := i
        done;
        if !next < 0 || Failure.p profile !next >= 1.0 then
          raise
            (Infeasible
               (Printf.sprintf
                  "task %d cannot reach P(all replicas lost) <= %g: no usable \
                   machine left to add"
                  j (Float.exp log_eps)));
        Bitset.add set !next;
        mem.(!next) <- mem.(!next) +. size;
        loss := !loss +. Failure.log_loss profile !next
      done;
      sets.(j) <- set)
    (Instance.lpt_order instance);
  Placement.of_sets ~m sets

let stranding_bound instance placement =
  let profile = Instance.failure_or_default instance in
  let total = ref 0.0 in
  for j = 0 to Placement.n placement - 1 do
    total := !total +. Failure.prob_all_lost profile (Placement.set placement j)
  done;
  !total

let survival_bound instance placement =
  Float.max 0.0 (1.0 -. stranding_bound instance placement)
