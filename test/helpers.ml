(* Small helpers several test suites share, kept here because nothing
   the library ships needs them. *)

module Rng = Usched_prng.Rng

(* In-place Fisher-Yates shuffle drawing from [rng]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

module Bitset = Usched_model.Bitset
module Failure = Usched_model.Failure
module Speed_band = Usched_model.Speed_band
module Topology = Usched_model.Topology

(* Bit-exact equality through the round-trip-precise wire forms. *)
let failure_equal a b = Failure.to_string a = Failure.to_string b
let band_equal a b = Speed_band.to_string a = Speed_band.to_string b
let topology_equal a b = Topology.to_string a = Topology.to_string b

(* The members of [s], ascending. *)
let elements s = List.rev (Bitset.fold (fun acc i -> i :: acc) [] s)

module Instance = Usched_model.Instance
module Uncertainty = Usched_model.Uncertainty

(* [instance]'s estimates on a priced [zones]-zone topology with random
   data sizes, drawn from [rng]: a copy placed outside its data's home
   zone pays staging. *)
let with_priced_zones rng ~zones instance =
  let m = Instance.m instance in
  let sizes =
    Array.init (Instance.n instance) (fun _ -> Rng.float_range rng ~lo:0.1 ~hi:8.0)
  in
  let topology =
    Topology.zoned ~m ~zones
      ~bandwidth:(Rng.float_range rng ~lo:0.3 ~hi:3.0)
      ~latency:(Rng.float_range rng ~lo:0.0 ~hi:1.5)
      ()
  in
  Instance.of_ests ~topology ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes
    (Instance.ests instance)

module Fault = Usched_faults.Fault
module Fault_trace = Usched_faults.Trace

(* Union of two fault traces over the same machine count. *)
let merge_traces a b =
  Fault_trace.of_events ~m:(Fault_trace.m a) (Fault_trace.events a @ Fault_trace.events b)

(* Earliest permanent crash of [machine] in [trace], if any. *)
let crash_time trace machine =
  List.find_map
    (fun (e : Fault.event) ->
      match e.Fault.kind with
      | Fault.Crash when e.Fault.machine = machine -> Some e.Fault.time
      | _ -> None)
    (Fault_trace.events trace)

module Event_heap = Usched_desim.Event_heap

(* Pops [heap] to empty as the engine does: [next] consumes the root,
   whose time, machine and payload go to [handle], which may push (its
   first push replaces the consumed root). *)
let drain heap ~handle =
  let slot = ref (Event_heap.next heap) in
  while !slot >= 0 do
    let time = heap.Event_heap.times.(0) in
    let machine = Event_heap.root_machine heap in
    let payload = heap.Event_heap.payloads.(!slot) in
    handle ~time ~machine payload;
    slot := Event_heap.next heap
  done

module Schedule = Usched_desim.Schedule

let machine_of schedule j = (Schedule.entry schedule j).Schedule.machine

(* Per-task machine. *)
let assignment schedule = Array.init (Schedule.n schedule) (machine_of schedule)

(* Total busy time per machine. *)
let loads schedule =
  let loads = Array.make (Schedule.m schedule) 0.0 in
  for j = 0 to Schedule.n schedule - 1 do
    let { Schedule.machine = i; start; finish } = Schedule.entry schedule j in
    loads.(i) <- loads.(i) +. (finish -. start)
  done;
  loads

(* Tasks run by machine [i], in increasing start order (ties by task
   id): the O(n) per-machine definition [Schedule.by_machine] is checked
   against. *)
let machine_tasks schedule i =
  let start j = (Schedule.entry schedule j).Schedule.start in
  List.filter (fun j -> machine_of schedule j = i) (List.init (Schedule.n schedule) Fun.id)
  |> List.stable_sort (fun a b -> Float.compare (start a) (start b))

let pp_violation ppf = function
  | Schedule.Overlap { machine; task_a; task_b } ->
      Format.fprintf ppf "overlap on machine %d between tasks %d and %d" machine
        task_a task_b
  | Schedule.Wrong_duration { task; expected; got } ->
      Format.fprintf ppf "task %d ran for %g instead of %g" task got expected
  | Schedule.Not_allowed { task; machine } ->
      Format.fprintf ppf "task %d executed on machine %d without its data" task
        machine

(* [(from, until)] outage intervals of [machine] in a fault trace,
   chronological. *)
let outages trace machine =
  List.filter_map
    (fun (e : Fault.event) ->
      match e.kind with
      | Fault.Outage until when e.machine = machine -> Some (e.time, until)
      | _ -> None)
    (Usched_faults.Trace.events trace)

(* Per-task replication degrees [|M_j|] of a placement. *)
let degrees p =
  Array.init (Usched_core.Placement.n p) (Usched_core.Placement.replication p)

module Engine = Usched_desim.Engine
module Sink = Usched_obs.Trace

(* [run]'s result and the bytes it wrote into a memory sink. *)
let sink_bytes run =
  let sink = Sink.memory () in
  let result = run sink in
  (result, Sink.contents sink)

(* The JSONL bytes of an event log, one record per line: what the run
   that produced the log writes into its sink. *)
let log_bytes events =
  String.concat ""
    (List.map (fun e -> Usched_report.Json.to_string (Engine.event_json e) ^ "\n") events)

(* Holder sets for the engine entry points, from per-task sets, and
   back. *)
module Holders = Usched_model.Holders

let holders = Holders.of_sets
let task_sets h = Array.init (Holders.n h) (Holders.set h)
