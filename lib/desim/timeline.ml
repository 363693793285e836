type machine_stats = {
  machine : int;
  busy : float;
  finish : float;
  tasks : int;
  idle_before_finish : float;
}

let stats_record i ~busy ~finish ~tasks =
  { machine = i; busy; finish; tasks; idle_before_finish = finish -. busy }

(* Per-machine sums over [Schedule.by_machine]'s buckets, in their
   (start, id) order, read straight from the schedule's time lanes: no
   per-task [Schedule.entry] record is built. *)
let bucket_stats schedule =
  let starts = Schedule.starts schedule
  and finishes = Schedule.finishes schedule in
  Array.mapi
    (fun i tasks ->
      let busy = ref 0.0 and finish = ref 0.0 in
      for k = 0 to Array.length tasks - 1 do
        let j = tasks.(k) in
        busy := !busy +. (finishes.(j) -. starts.(j));
        finish := Float.max !finish finishes.(j)
      done;
      stats_record i ~busy:!busy ~finish:!finish ~tasks:(Array.length tasks))
    (Schedule.by_machine schedule)

(* One pass in id order. While every machine's starts are
   non-decreasing in id order ([Float.compare], the test
   [Schedule.by_machine] applies), id order is each bucket's
   (start, id) order, so the sums are the bucket path's, addition for
   addition; at the first start that decreases, the buckets decide. *)
let machine_stats schedule =
  let m = Schedule.m schedule in
  let machines = Schedule.machines schedule
  and starts = Schedule.starts schedule
  and finishes = Schedule.finishes schedule in
  let tasks = Array.make m 0
  and busy = Array.make m 0.0
  and finish = Array.make m 0.0
  and last = Array.make m 0.0 in
  let n = Array.length machines in
  let j = ref 0 and ordered = ref true in
  while !ordered && !j < n do
    let i = machines.(!j) and start = starts.(!j) in
    if tasks.(i) > 0 && Float.compare last.(i) start > 0 then ordered := false
    else begin
      last.(i) <- start;
      tasks.(i) <- tasks.(i) + 1;
      busy.(i) <- busy.(i) +. (finishes.(!j) -. start);
      finish.(i) <- Float.max finish.(i) finishes.(!j);
      incr j
    end
  done;
  if not !ordered then bucket_stats schedule
  else
    Array.init m (fun i ->
        stats_record i ~busy:busy.(i) ~finish:finish.(i) ~tasks:tasks.(i))

let utilization schedule stats =
  let horizon = Schedule.makespan schedule in
  if horizon <= 0.0 then 0.0
  else begin
    let busy = Array.fold_left (fun acc s -> acc +. s.busy) 0.0 stats in
    busy /. (float_of_int (Schedule.m schedule) *. horizon)
  end

let render_events events =
  let buffer = Buffer.create 256 in
  List.iter
    (fun event ->
      let line =
        match event with
        | Engine.Arrived { time; task } ->
            Printf.sprintf "t=%-10.4f      arrive   task %d\n" time task
        | Engine.Started { time; machine; task } ->
            Printf.sprintf "t=%-10.4f m%-3d start    task %d\n" time machine task
        | Engine.Completed { time; machine; task } ->
            Printf.sprintf "t=%-10.4f m%-3d complete task %d\n" time machine task
        | Engine.Killed { time; machine; task } ->
            Printf.sprintf "t=%-10.4f m%-3d KILLED   task %d (work lost)\n" time
              machine task
        | Engine.Cancelled { time; machine; task } ->
            Printf.sprintf "t=%-10.4f m%-3d cancel   task %d (lost the race)\n"
              time machine task
        | Engine.Machine_crashed { time; machine } ->
            Printf.sprintf "t=%-10.4f m%-3d CRASHED  (data lost)\n" time machine
        | Engine.Machine_down { time; machine; until } ->
            Printf.sprintf "t=%-10.4f m%-3d down     until %.4f\n" time machine
              until
        | Engine.Machine_up { time; machine } ->
            Printf.sprintf "t=%-10.4f m%-3d up\n" time machine
        | Engine.Machine_slowed { time; machine; factor } ->
            Printf.sprintf "t=%-10.4f m%-3d slowed   x%.3f\n" time machine factor
        | Engine.Failure_detected { time; machine } ->
            Printf.sprintf "t=%-10.4f m%-3d detected (failure acknowledged)\n"
              time machine
        | Engine.Rereplication_started { time; task; src; dst } ->
            Printf.sprintf "t=%-10.4f m%-3d replicate task %d -> m%d (started)\n"
              time src task dst
        | Engine.Rereplication_completed { time; task; src; dst } ->
            Printf.sprintf "t=%-10.4f m%-3d replicate task %d <- m%d (done)\n"
              time dst task src
        | Engine.Rereplication_aborted { time; task; src; dst } ->
            Printf.sprintf
              "t=%-10.4f m%-3d replicate task %d -> m%d (ABORTED)\n" time src
              task dst
        | Engine.Checkpoint_resumed { time; machine; task; progress } ->
            Printf.sprintf "t=%-10.4f m%-3d resume   task %d (%.3f banked)\n"
              time machine task progress
      in
      Buffer.add_string buffer line)
    events;
  Buffer.contents buffer

let render_stats schedule =
  let stats = machine_stats schedule in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "machine  tasks      busy    finish      idle\n";
  Array.iter
    (fun s ->
      Buffer.add_string buffer
        (Printf.sprintf "m%-7d %5d %9.3f %9.3f %9.3f\n" s.machine s.tasks s.busy
           s.finish s.idle_before_finish))
    stats;
  Buffer.add_string buffer
    (Printf.sprintf "utilization: %.1f%% of m * makespan\n"
       (100.0 *. utilization schedule stats));
  Buffer.contents buffer
