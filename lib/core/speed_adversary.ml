module Instance = Usched_model.Instance
module Speed_band = Usched_model.Speed_band
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

let exhaustive ?(domains = 1) ~run band =
  let m = Speed_band.m band in
  if m > 16 then invalid_arg "Speed_adversary.exhaustive: too many machines";
  let corners = 1 lsl m in
  (* Corners shard across domains; the sequential fold below visits them
     in mask order, so the reported worst corner — [better] keeps the
     first maximum — is bit-identical at any domain count. *)
  let measured =
    Pool.parallel_init ~domains corners (fun mask ->
        let speeds =
          Array.init m (fun i ->
              if mask land (1 lsl i) <> 0 then Speed_band.lo band i
              else Speed_band.hi band i)
        in
        (speeds, run speeds))
  in
  let best = ref ([||], neg_infinity) in
  for mask = 0 to corners - 1 do
    best := better !best measured.(mask)
  done;
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

let worst_case ?(exact_limit = 10) ?(candidates = []) ?domains ~run instance
    placement band =
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
      if m <= exact_limit then exhaustive ?domains ~run band
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
