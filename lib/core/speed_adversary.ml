module Instance = Usched_model.Instance
module Speed_band = Usched_model.Speed_band
module Topology = Usched_model.Topology
module Bitset = Usched_model.Bitset
module Holders = Usched_model.Holders
module Set_table = Usched_model.Set_table
module Pool = Usched_parallel.Pool

let critical_load instance placement =
  let m = Instance.m instance and n = Instance.n instance in
  let load = Array.make m 0.0 in
  for j = 0 to n - 1 do
    let share =
      Instance.est instance j
      /. float_of_int (Placement.replication placement j)
    in
    for i = 0 to m - 1 do
      if Placement.allowed placement ~task:j ~machine:i then
        load.(i) <- load.(i) +. share
    done
  done;
  load

let better ((_, mk_a) as a) ((_, mk_b) as b) = if mk_b > mk_a then b else a

(* Relative inflation of the bound, covering the float summation error
   of the replay and of the bound itself. *)
let bound_slack = 1e-9

(* The proof is in the interface. Everything that does not depend on
   the speeds is summed per distinct replica set once, at partial
   application: a corner then costs O(sets * m) and no per-task work. *)
let makespan_bound instance ~actuals placement =
  let m = Instance.m instance and n = Instance.n instance in
  if Array.length actuals <> n || Placement.n placement <> n then
    invalid_arg "Speed_adversary.makespan_bound: task counts disagree";
  let holders = Placement.sets placement in
  let groups = Set_table.to_array holders.Holders.table
  and group_of = holders.Holders.index in
  let g = Array.length groups in
  (* Per set: summed actual work, summed worst staging time, and the
     largest actual and staging time of one of its own tasks. *)
  let work = Array.make g 0.0 and staging = Array.make g 0.0 in
  let top_work = Array.make g 0.0 and top_staging = Array.make g 0.0 in
  let topo = Instance.topology instance in
  for j = 0 to n - 1 do
    let k = group_of.(j) in
    let st =
      match topo with
      | None -> 0.0
      | Some tp ->
          let size = Instance.size instance j in
          Bitset.fold
            (fun acc i ->
              Float.max acc (Topology.staging_time tp ~src:(j mod m) ~dst:i ~size))
            0.0 groups.(k)
    in
    work.(k) <- work.(k) +. actuals.(j);
    staging.(k) <- staging.(k) +. st;
    top_work.(k) <- Float.max top_work.(k) actuals.(j);
    top_staging.(k) <- Float.max top_staging.(k) st
  done;
  (* What the machines of set [k] can be kept busy with: the work of
     every set that meets it. *)
  let met_work = Array.make g 0.0 and met_staging = Array.make g 0.0 in
  for k = 0 to g - 1 do
    for h = 0 to g - 1 do
      if not (Bitset.inter_is_empty groups.(k) groups.(h)) then begin
        met_work.(k) <- met_work.(k) +. work.(h);
        met_staging.(k) <- met_staging.(k) +. staging.(h)
      end
    done
  done;
  fun speeds ->
    if Array.length speeds <> m then
      invalid_arg "Speed_adversary.makespan_bound: speeds length differs";
    let bound = ref 0.0 in
    for k = 0 to g - 1 do
      let set = groups.(k) in
      if Bitset.is_empty set then bound := infinity
      else begin
        let total = ref 0.0 and slowest = ref infinity and fastest = ref 0.0 in
        let i = ref (Bitset.next set 0) in
        while !i >= 0 do
          let s = speeds.(!i) in
          total := !total +. s;
          slowest := Float.min !slowest s;
          fastest := Float.max !fastest s;
          i := Bitset.next set (!i + 1)
        done;
        let finish =
          ((met_work.(k) +. (met_staging.(k) *. !fastest)) /. !total)
          +. (top_work.(k) /. !slowest)
          +. top_staging.(k)
        in
        bound := Float.max !bound finish
      end
    done;
    !bound *. (1.0 +. bound_slack)

let exhaustive ?(domains = 1) ?bound ~run band =
  let m = Speed_band.m band in
  if m > 16 then invalid_arg "Speed_adversary.exhaustive: too many machines";
  let corners = 1 lsl m in
  let corner mask =
    Array.init m (fun i ->
        if mask land (1 lsl i) <> 0 then Speed_band.lo band i
        else Speed_band.hi band i)
  in
  (* Without a bound every corner is replayed in one parallel round.
     With one, corners are visited by descending bound (stable, so ties
     stay in mask order) in rounds of [domains], until the next bound is
     strictly below the best makespan so far: no corner left can reach
     it, let alone tie it. *)
  let bounds, visit, round =
    match bound with
    | None -> (Array.make corners infinity, Array.init corners Fun.id, corners)
    | Some f ->
        let bounds = Array.init corners (fun mask -> f (corner mask)) in
        let visit = Array.init corners Fun.id in
        Array.stable_sort
          (fun a b -> Float.compare bounds.(b) bounds.(a))
          visit;
        (bounds, visit, domains)
  in
  let measured = Array.make corners None in
  let top = ref neg_infinity and next = ref 0 in
  let live k = k < corners && not (bounds.(visit.(k)) < !top) in
  while live !next do
    let stop = ref !next in
    while !stop - !next < round && live !stop do
      incr stop
    done;
    let first = !next in
    let results =
      Pool.parallel_init ~domains (!stop - first) (fun k ->
          let speeds = corner visit.(first + k) in
          (speeds, run speeds))
    in
    Array.iteri
      (fun k ((_, mk) as r) ->
        measured.(visit.(first + k)) <- Some r;
        if mk > !top then top := mk)
      results;
    next := !stop
  done;
  (* The fold visits the replayed corners in mask order, so the reported
     worst corner — [better] keeps the first maximum — is the one full
     enumeration reports, bit for bit, at any domain count: every corner
     that ties the maximum was replayed. *)
  let best = ref ([||], neg_infinity) in
  Array.iter
    (function Some r -> best := better !best r | None -> ())
    measured;
  !best

let greedy ?(sweeps = 2) ~run ~order band =
  let m = Speed_band.m band in
  if Array.length order <> m then
    invalid_arg "Speed_adversary.greedy: order must list every machine";
  let speeds = Speed_band.his band in
  let best = ref (run speeds) in
  for _ = 1 to sweeps do
    Array.iter
      (fun i ->
        let saved = speeds.(i) in
        let flipped =
          if saved = Speed_band.lo band i then Speed_band.hi band i
          else Speed_band.lo band i
        in
        if flipped <> saved then begin
          speeds.(i) <- flipped;
          let candidate = run speeds in
          if candidate > !best then best := candidate
          else speeds.(i) <- saved
        end)
      order
  done;
  (speeds, !best)

let worst_case ?(candidates = []) ?domains ?bound ~run
    instance placement band =
  let m = Speed_band.m band in
  if Instance.m instance <> m then
    invalid_arg "Speed_adversary.worst_case: machine counts disagree";
  if Speed_band.is_degenerate band then begin
    let speeds = Speed_band.los band in
    (speeds, run speeds)
  end
  else begin
    let consider acc speeds =
      if not (Speed_band.contains band speeds) then
        invalid_arg "Speed_adversary.worst_case: candidate outside its band";
      better acc (Array.copy speeds, run speeds)
    in
    let searched =
      if m <= 10 then exhaustive ?domains ?bound ~run band
      else begin
        let crit = critical_load instance placement in
        let order = Array.init m (fun i -> i) in
        Array.sort
          (fun a b ->
            match Float.compare crit.(b) crit.(a) with
            | 0 -> Int.compare a b
            | c -> c)
          order;
        greedy ~run ~order band
      end
    in
    List.fold_left consider searched
      ([ Speed_band.los band; Speed_band.his band; Speed_band.mids band ]
      @ candidates)
  end
