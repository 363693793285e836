module Argsort = Usched_model.Argsort
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization

type entry = { machine : int; start : float; finish : float }

(* Struct-of-arrays internally: one int lane and two unboxed float
   lanes instead of an array of 4-word mixed records. The engines fill
   the lanes in place and hand them over via [of_soa] without building
   a record per task; [entry] records are materialized on demand. *)
type t = { m : int; machines : int array; starts : float array; finishes : float array }

let check ~m t =
  let n = Array.length t.machines in
  for j = 0 to n - 1 do
    let machine = t.machines.(j) in
    if machine < 0 || machine >= m then
      invalid_arg (Printf.sprintf "Schedule.make: task %d on machine %d" j machine);
    let start = t.starts.(j) and finish = t.finishes.(j) in
    if start < 0.0 || finish < start then
      invalid_arg (Printf.sprintf "Schedule.make: task %d has bad times" j)
  done;
  t

let make ~m entries =
  check ~m
    {
      m;
      machines = Array.map (fun e -> e.machine) entries;
      starts = Array.map (fun e -> e.start) entries;
      finishes = Array.map (fun e -> e.finish) entries;
    }

let of_soa ~m ~machines ~starts ~finishes =
  let n = Array.length machines in
  if Array.length starts <> n || Array.length finishes <> n then
    invalid_arg "Schedule.of_soa: length mismatch";
  check ~m { m; machines; starts; finishes }

let n t = Array.length t.machines
let m t = t.m

let starts t = t.starts
let finishes t = t.finishes
let machines t = t.machines

let entry t j =
  { machine = t.machines.(j); start = t.starts.(j); finish = t.finishes.(j) }

(* A [for] loop, not [Array.fold_left]: the generic fold boxes every
   float it hands to [Float.max]. The same maxima in the same order. *)
let makespan t =
  let best = ref 0.0 in
  for j = 0 to Array.length t.finishes - 1 do
    best := Float.max !best t.finishes.(j)
  done;
  !best

(* Counting sort by machine: one pass counts, one pass drops task ids
   into their machine's bucket in ascending id order. [Argsort.increasing]
   leaves a bucket whose starts are already non-decreasing alone and
   stable-sorts any other by start, which keeps ties in id order. *)
let by_machine t =
  let counts = Array.make t.m 0 in
  Array.iter (fun i -> counts.(i) <- counts.(i) + 1) t.machines;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 t.m 0;
  Array.iteri
    (fun j i ->
      buckets.(i).(counts.(i)) <- j;
      counts.(i) <- counts.(i) + 1)
    t.machines;
  Array.iter (Argsort.increasing t.starts) buckets;
  buckets

let of_assignment ~m ~durations assignment =
  let n = Array.length assignment in
  if Array.length durations <> n then
    invalid_arg "Schedule.of_assignment: length mismatch";
  let next_free = Array.make m 0.0 in
  let machines = Array.copy assignment in
  let starts = Array.make n 0.0 in
  let finishes = Array.make n 0.0 in
  (* Machine range is validated by [check] below; guard the indexing
     into [next_free] here so a bad machine id fails with the make
     error, not an array bound. *)
  Array.iteri
    (fun j machine ->
      if machine >= 0 && machine < m then begin
        let start = next_free.(machine) in
        let finish = start +. durations.(j) in
        next_free.(machine) <- finish;
        starts.(j) <- start;
        finishes.(j) <- finish
      end)
    machines;
  check ~m { m; machines; starts; finishes }

type violation =
  | Overlap of { machine : int; task_a : int; task_b : int }
  | Wrong_duration of { task : int; expected : float; got : float }
  | Not_allowed of { task : int; machine : int }

let validate ?placement ?speeds instance realization t =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let tolerance = 1e-9 *. Float.max 1.0 (makespan t) in
  let speed_of i = match speeds with None -> 1.0 | Some s -> s.(i) in
  (* Durations must match the realized actual times (scaled by machine
     speed on uniform machines). *)
  for j = 0 to n t - 1 do
    let expected = Realization.actual realization j /. speed_of t.machines.(j) in
    let got = t.finishes.(j) -. t.starts.(j) in
    if Float.abs (expected -. got) > tolerance then
      push (Wrong_duration { task = j; expected; got })
  done;
  (* Data locality: each task ran where its data was placed. *)
  (match placement with
  | None -> ()
  | Some holders ->
      for j = 0 to n t - 1 do
        if not (Bitset.mem (Usched_model.Holders.set holders j) t.machines.(j)) then
          push (Not_allowed { task = j; machine = t.machines.(j) })
      done);
  (* No two tasks overlap on one machine. *)
  Array.iteri
    (fun i tasks ->
      for k = 1 to Array.length tasks - 1 do
        let a = tasks.(k - 1) and b = tasks.(k) in
        if t.finishes.(a) > t.starts.(b) +. tolerance then
          push (Overlap { machine = i; task_a = a; task_b = b })
      done)
    (by_machine t);
  ignore instance;
  List.rev !violations
