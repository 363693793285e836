(* The pre-refactor engine, frozen verbatim as the golden reference.

   This is the engine exactly as it stood before the zero-allocation
   rewrite — binary [Pqueue]-backed event core, per-machine mutable
   records with [copy option] chains, closure-based dispatch views —
   with its then-private dependencies (the event-queue and machine-state
   layers, [Dispatch]'s policy implementations) inlined, since the live
   modules changed representation or are gone. test_golden_engine checks the rewritten
   engine against this one bit-for-bit (schedules, outcomes, event
   logs, metrics snapshots) over hundreds of fault scenarios; the code
   here must therefore never be "improved" — it is a spec.

   Public result types ([Engine.event], [Engine.outcome], [Schedule.t])
   are shared with the live engine so comparisons need no translation
   layer. *)

[@@@warning "-26-27-32"]

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Schedule = Usched_desim.Schedule
module Dispatch = Usched_desim.Dispatch
module Engine = Usched_desim.Engine
open Engine

(* The old event-queue layer: a binary [Pqueue] of boxed event records. *)
module R_event = struct
  type 'a event = {
    time : float;
    machine : int;
    cls : int;
    seq : int;
    payload : 'a;
  }

  let cls_fault = 0
  let cls_arrival = 1
  let cls_decision = 2
  let cls_audit = 3

  let compare_event a b =
    match Float.compare a.time b.time with
    | 0 -> (
        match Int.compare a.machine b.machine with
        | 0 -> (
            match Int.compare a.cls b.cls with
            | 0 -> Int.compare a.seq b.seq
            | c -> c)
        | c -> c)
    | c -> c

  type 'a t = { queue : 'a event Pqueue.t; mutable seq : int }

  let create () = { queue = Pqueue.create ~compare:compare_event (); seq = 0 }

  let push t ~time ~machine ~cls payload =
    t.seq <- t.seq + 1;
    Pqueue.push t.queue { time; machine; cls; seq = t.seq; payload }

  let length t = Pqueue.length t.queue

  let drain t ~handle =
    let rec loop () =
      match Pqueue.pop t.queue with
      | None -> ()
      | Some { time; machine; payload; _ } ->
          handle ~time ~machine payload;
          loop ()
    in
    loop ()
end

(* The old machine-state layer: one mutable record per machine, the
   in-flight copy as a [copy option]. *)
module R_ms = struct
  type copy = {
    c_task : int;
    c_started : float;
    mutable c_remaining : float;
    mutable c_last : float;
    c_base : float;
  }

  type machine = {
    mutable alive : bool;
    mutable down_until : float;
    mutable factor : float;
    mutable gen : int;
    mutable current : copy option;
    mutable orphan : int option;
    mutable undetected : float option;
    mutable ckpt : (int * float) option;
  }

  type t = {
    m : int;
    speeds : float array option;
    machines : machine array;
    alive_set : Bitset.t;
  }

  let create ?speeds ~m () =
    {
      m;
      speeds;
      machines =
        Array.init m (fun _ ->
            {
              alive = true;
              down_until = 0.0;
              factor = 1.0;
              gen = 0;
              current = None;
              orphan = None;
              undetected = None;
              ckpt = None;
            });
      alive_set = Bitset.full m;
    }

  let get t i = t.machines.(i)
  let alive_set t = t.alive_set
  let base_speed t i = match t.speeds with None -> 1.0 | Some s -> s.(i)
  let eff_speed t i = base_speed t i *. t.machines.(i).factor

  let available t ~time i =
    let ms = t.machines.(i) in
    ms.alive && ms.down_until <= time

  let idle t ~time i = available t ~time i && t.machines.(i).current = None

  let mark_crashed t i =
    t.machines.(i).alive <- false;
    Bitset.remove t.alive_set i

  let fresh_copy ~task ~time ~work =
    { c_task = task; c_started = time; c_remaining = work; c_last = time; c_base = 0.0 }

  let resumed_copy ~task ~time ~work ~banked =
    {
      c_task = task;
      c_started = time;
      c_remaining = work -. banked;
      c_last = time;
      c_base = banked;
    }

  let sync_remaining c ~time ~speed =
    c.c_remaining <- c.c_remaining -. ((time -. c.c_last) *. speed);
    c.c_last <- time

  let remaining_at c ~time ~speed =
    Float.max 0.0 (c.c_remaining -. ((time -. c.c_last) *. speed))
end

(* The old [Dispatch]: closure-shaped view (est/speed functions,
   time-passing availability), option-returning select. Specs are the
   live module's — only the implementation is frozen. *)
module R_dispatch = struct
  module Rng = Usched_prng.Rng

  type view = {
    n : int;
    m : int;
    order : int array;
    pos_of : int array;
    dispatchable : bool array;
    holders : Bitset.t array;
    est : int -> float;
    speed : int -> float;
    load : float array;
    available : time:float -> int -> bool;
  }

  type t = {
    spec : Dispatch.spec;
    select : time:float -> machine:int -> int option;
    notify : task:int -> unit;
  }

  let make_list_priority v =
    let cursor = Array.make v.m 0 in
    let select ~time:_ ~machine:i =
      let rec scan pos =
        if pos >= v.n then None
        else begin
          cursor.(i) <- pos + 1;
          let j = v.order.(pos) in
          if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then Some j
          else scan (pos + 1)
        end
      in
      scan cursor.(i)
    in
    let notify ~task =
      let p = v.pos_of.(task) in
      for i = 0 to v.m - 1 do
        if cursor.(i) > p then cursor.(i) <- p
      done
    in
    { spec = Dispatch.List_priority; select; notify }

  let rec ll_better v ~time j i k =
    k < v.m
    && ((k <> i
        && Bitset.mem v.holders.(j) k
        && v.available ~time k
        && v.load.(k) < v.load.(i))
       || ll_better v ~time j i (k + 1))

  let rec ll_scan v ~time i ~fallback pos =
    if pos >= v.n then if fallback >= 0 then Some fallback else None
    else
      let j = v.order.(pos) in
      if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then
        let fallback = if fallback < 0 then j else fallback in
        if ll_better v ~time j i 0 then ll_scan v ~time i ~fallback (pos + 1)
        else Some j
      else ll_scan v ~time i ~fallback (pos + 1)

  let make_least_loaded v =
    let select ~time ~machine:i = ll_scan v ~time i ~fallback:(-1) 0 in
    { spec = Dispatch.Least_loaded_holder; select; notify = (fun ~task:_ -> ()) }

  let make_earliest_completion v =
    let select ~time:_ ~machine:i =
      let best = ref (-1) and best_cost = ref infinity in
      for pos = 0 to v.n - 1 do
        let j = v.order.(pos) in
        if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then begin
          let cost = v.est j /. v.speed i in
          if cost < !best_cost then begin
            best := j;
            best_cost := cost
          end
        end
      done;
      if !best >= 0 then Some !best else None
    in
    { spec = Dispatch.Earliest_estimated_completion; select; notify = (fun ~task:_ -> ()) }

  let make_random_tiebreak seed v =
    let rng = Rng.create ~seed () in
    let candidates = Array.make (Stdlib.max 1 v.n) 0 in
    let select ~time:_ ~machine:i =
      let rec first pos =
        if pos >= v.n then None
        else
          let j = v.order.(pos) in
          if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then Some (pos, j)
          else first (pos + 1)
      in
      match first 0 with
      | None -> None
      | Some (pos0, j0) ->
          let e0 = v.est j0 in
          let count = ref 0 in
          for pos = pos0 to v.n - 1 do
            let j = v.order.(pos) in
            if v.dispatchable.(j) && Bitset.mem v.holders.(j) i && v.est j = e0
            then begin
              candidates.(!count) <- j;
              incr count
            end
          done;
          if !count <= 1 then Some j0
          else Some candidates.(Rng.int rng !count)
    in
    { spec = Dispatch.Random_tiebreak seed; select; notify = (fun ~task:_ -> ()) }

  let make spec v =
    (match v.n with
    | n when n <> Array.length v.order || n <> Array.length v.pos_of ->
        invalid_arg "Dispatch.make: order/pos_of length differs from task count"
    | _ -> ());
    match spec with
    | Dispatch.List_priority -> make_list_priority v
    | Dispatch.Least_loaded_holder -> make_least_loaded v
    | Dispatch.Earliest_estimated_completion -> make_earliest_completion v
    (* Golden instances carry no topology, where the live Locality
       policy is defined to coincide with Least_loaded_holder. *)
    | Dispatch.Locality ->
        { (make_least_loaded v) with spec = Dispatch.Locality }
    | Dispatch.Random_tiebreak seed -> make_random_tiebreak seed v

  let select t ~time ~machine = t.select ~time ~machine
  let notify_available t ~task = t.notify ~task
  let redispatch_order _t machines = List.sort Int.compare machines
end

let check_inputs ?speeds ~name instance ~placement ~order =
  let n = Instance.n instance and m = Instance.m instance in
  (match speeds with
  | None -> ()
  | Some s ->
      if Array.length s <> m then
        invalid_arg (Printf.sprintf "%s: speeds length differs from machine count" name);
      Array.iter
        (fun v ->
          if not (v > 0.0) then
            invalid_arg (Printf.sprintf "%s: speeds must be > 0" name))
        s);
  if Array.length placement <> n then
    invalid_arg (Printf.sprintf "%s: placement length differs from instance" name);
  Array.iteri
    (fun j set ->
      if Bitset.capacity set <> m then
        invalid_arg (Printf.sprintf "%s: placement of task %d has wrong capacity" name j);
      if Bitset.is_empty set then
        invalid_arg (Printf.sprintf "%s: task %d is placed nowhere" name j))
    placement;
  if Array.length order <> n then
    invalid_arg (Printf.sprintf "%s: order length differs from instance" name);
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= n || seen.(j) then
        invalid_arg (Printf.sprintf "%s: order is not a permutation of task ids" name);
      seen.(j) <- true)
    order

let inverse_order ~n order =
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos j -> pos_of.(j) <- pos) order;
  pos_of

let run_internal ?speeds ~dispatch ~metrics instance realization ~placement
    ~order ~emit =
  check_inputs ?speeds ~name:"Engine.run" instance ~placement ~order;
  let n = Instance.n instance and m = Instance.m instance in
  let speed_of i = match speeds with None -> 1.0 | Some s -> s.(i) in
  let live = Metrics.is_enabled metrics in
  let mc_events = Metrics.counter metrics "engine.events" in
  let mc_dispatches = Metrics.counter metrics "engine.dispatches" in
  let mg_queue = Metrics.gauge metrics "engine.queue_depth_max" in
  let mg_makespan = Metrics.gauge metrics "engine.makespan" in
  let mh_idle = Metrics.histogram metrics "engine.machine_idle" in
  let busy = if live then Array.make m 0.0 else [||] in
  let dispatchable = Array.make n true in
  let entries =
    Array.make n { Schedule.machine = 0; start = 0.0; finish = 0.0 }
  in
  let remaining = ref n in
  let loads = Array.make m 0.0 in
  let policy =
    R_dispatch.make dispatch
      {
        R_dispatch.n;
        m;
        order;
        pos_of = inverse_order ~n order;
        dispatchable;
        holders = placement;
        est = Instance.est instance;
        speed = speed_of;
        load = loads;
        available = (fun ~time:_ _ -> true);
      }
  in
  let queue = R_event.create () in
  for i = 0 to m - 1 do
    R_event.push queue ~time:0.0 ~machine:i ~cls:R_event.cls_decision ()
  done;
  if live then
    Metrics.record_max mg_queue (float_of_int (R_event.length queue));
  R_event.drain queue ~handle:(fun ~time ~machine:i () ->
      Metrics.incr mc_events;
      match R_dispatch.select policy ~time ~machine:i with
      | None -> ()
      | Some j ->
          let finish = time +. (Realization.actual realization j /. speed_of i) in
          entries.(j) <- { Schedule.machine = i; start = time; finish };
          dispatchable.(j) <- false;
          loads.(i) <- loads.(i) +. Instance.est instance j;
          remaining := !remaining - 1;
          emit (Started { time; machine = i; task = j });
          emit (Completed { time = finish; machine = i; task = j });
          Metrics.incr mc_dispatches;
          if live then busy.(i) <- busy.(i) +. (finish -. time);
          R_event.push queue ~time:finish ~machine:i
            ~cls:R_event.cls_decision ();
          if live then
            Metrics.record_max mg_queue (float_of_int (R_event.length queue)));
  if !remaining > 0 then begin
    let left = ref [] in
    for j = n - 1 downto 0 do
      if dispatchable.(j) then left := j :: !left
    done;
    raise (Unschedulable !left)
  end;
  if live then begin
    let mk = ref 0.0 in
    Array.iter
      (fun e -> if e.Schedule.finish > !mk then mk := e.Schedule.finish)
      entries;
    Metrics.set mg_makespan !mk;
    for i = 0 to m - 1 do
      Metrics.observe mh_idle (!mk -. busy.(i))
    done
  end;
  Schedule.make ~m entries

let sort_events events =
  let time_of = function
    | Arrived { time; _ }
    | Started { time; _ }
    | Completed { time; _ }
    | Killed { time; _ }
    | Cancelled { time; _ }
    | Machine_crashed { time; _ }
    | Machine_down { time; _ }
    | Machine_up { time; _ }
    | Machine_slowed { time; _ }
    | Failure_detected { time; _ }
    | Rereplication_started { time; _ }
    | Rereplication_completed { time; _ }
    | Rereplication_aborted { time; _ }
    | Checkpoint_resumed { time; _ } -> time
  in
  List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b)) events

let run_traced ?speeds ?(dispatch = Dispatch.default)
    ?(metrics = Metrics.disabled) instance realization ~placement ~order =
  let events = ref [] in
  let schedule =
    run_internal ?speeds ~dispatch ~metrics instance realization ~placement
      ~order ~emit:(fun e -> events := e :: !events)
  in
  (schedule, sort_events (List.rev !events))

type tstatus = Pending | Running | Done | Lost

type sim =
  | Sim_fault of Fault.kind
  | Sim_up
  | Sim_detect
  | Sim_arrive of { task : int }
  | Sim_complete of { gen : int }
  | Sim_transfer of { task : int; src : int; dst : int; id : int }
  | Sim_dispatch
  | Sim_speculate of { task : int; gen : int }

let run_faulty_internal ?speeds ?speculation ~dispatch ~recovery ~metrics
    ~arrivals instance realization ~faults ~placement ~order ~emit =
  check_inputs ?speeds ~name:"Engine.run_faulty" instance ~placement ~order;
  let n = Instance.n instance and m = Instance.m instance in
  if Trace.m faults <> m then
    invalid_arg "Engine.run_faulty: trace machine count differs from instance";
  (match arrivals with
  | None -> ()
  | Some arr ->
      if Array.length arr <> n then
        invalid_arg "Engine.run_stream: arrivals length differs from instance";
      Array.iter
        (fun t ->
          if not (Float.is_finite t && t >= 0.0) then
            invalid_arg
              "Engine.run_stream: arrival times must be finite and >= 0")
        arr);
  (match speculation with
  | Some beta when not (beta > 0.0) ->
      invalid_arg "Engine.run_faulty: speculation factor must be > 0"
  | _ -> ());
  let rec_active = Recovery.is_active recovery in
  let det_latency = recovery.Recovery.detection_latency in
  let heals = Recovery.heals recovery in
  let target_of =
    match recovery.Recovery.rereplication_target with
    | Recovery.Fixed r -> fun _ -> r
    | Recovery.Degree ->
        let degree = Array.map Bitset.cardinal placement in
        fun j -> degree.(j)
  in
  let bandwidth = recovery.Recovery.bandwidth in
  let ckpt_interval = recovery.Recovery.checkpoint_interval in
  let live = Metrics.is_enabled metrics in
  let mc_events = Metrics.counter metrics "engine.events" in
  let mc_dispatches = Metrics.counter metrics "engine.dispatches" in
  let mc_redispatches = Metrics.counter metrics "engine.redispatches" in
  let mc_spec_starts = Metrics.counter metrics "engine.spec_starts" in
  let mc_spec_cancelled = Metrics.counter metrics "engine.spec_cancelled" in
  let mc_kills = Metrics.counter metrics "engine.kills" in
  let mc_crashes = Metrics.counter metrics "engine.crashes" in
  let mc_outages = Metrics.counter metrics "engine.outages" in
  let mc_slowdowns = Metrics.counter metrics "engine.slowdowns" in
  let mc_completed = Metrics.counter metrics "engine.completed" in
  let mc_stranded = Metrics.counter metrics "engine.stranded" in
  let mg_queue = Metrics.gauge metrics "engine.queue_depth_max" in
  let mg_makespan = Metrics.gauge metrics "engine.makespan" in
  let mg_wasted = Metrics.gauge metrics "engine.wasted_work" in
  let mh_idle = Metrics.histogram metrics "engine.machine_idle" in
  let streaming = arrivals <> None in
  let stream_metrics = if streaming then metrics else Metrics.disabled in
  let mc_arrivals = Metrics.counter stream_metrics "engine.arrivals" in
  let mh_latency = Metrics.histogram stream_metrics "engine.latency" in
  let busy = if live then Array.make m 0.0 else [||] in
  let st = R_ms.create ?speeds ~m () in
  let machine = R_ms.get st in
  let eff_speed = R_ms.eff_speed st in
  let base_speed = R_ms.base_speed st in
  let available ~time i = R_ms.available st ~time i in
  let alive_set = R_ms.alive_set st in
  let status = Array.make n Pending in
  let arrived = Array.make n (not streaming) in
  let dispatchable = Array.make n (not streaming) in
  let set_status j s =
    status.(j) <- s;
    dispatchable.(j) <- (s = Pending && arrived.(j))
  in
  let copies = Array.make n ([] : int list) in
  let task_gen = Array.make n 0 in
  let spec_ready = Array.make n false in
  let data =
    if rec_active then Array.map Bitset.copy placement else placement
  in
  let transfer = Array.make n (None : (int * int * int) option) in
  let transfer_id = ref 0 in
  let replica_load = Array.make m 0 in
  if rec_active then
    Array.iter
      (Bitset.iter (fun i -> replica_load.(i) <- replica_load.(i) + 1))
      data;
  let entries =
    Array.make n { Schedule.machine = 0; start = 0.0; finish = 0.0 }
  in
  let wasted = ref 0.0 in
  let loads = Array.make m 0.0 in
  let policy =
    R_dispatch.make dispatch
      {
        R_dispatch.n;
        m;
        order;
        pos_of = inverse_order ~n order;
        dispatchable;
        holders = data;
        est = Instance.est instance;
        speed = base_speed;
        load = loads;
        available;
      }
  in
  let queue = R_event.create () in
  let push ~time ~machine ~cls sim =
    R_event.push queue ~time ~machine ~cls sim;
    if live then
      Metrics.record_max mg_queue (float_of_int (R_event.length queue))
  in
  for i = 0 to m - 1 do
    push ~time:0.0 ~machine:i ~cls:R_event.cls_decision Sim_dispatch
  done;
  List.iter
    (fun (e : Fault.event) ->
      push ~time:e.Fault.time ~machine:e.Fault.machine ~cls:R_event.cls_fault
        (Sim_fault e.Fault.kind))
    (Trace.events faults);
  (match arrivals with
  | None -> ()
  | Some arr ->
      Array.iteri
        (fun j t ->
          push ~time:t ~machine:(-1) ~cls:R_event.cls_arrival
            (Sim_arrive { task = j }))
        arr);
  let wake_idle ~time =
    for i = 0 to m - 1 do
      if R_ms.idle st ~time i then
        push ~time ~machine:i ~cls:R_event.cls_decision Sim_dispatch
    done
  in
  let on_arrive ~time j =
    arrived.(j) <- true;
    Metrics.incr mc_arrivals;
    emit (Arrived { time; task = j });
    if status.(j) = Pending then begin
      dispatchable.(j) <- true;
      R_dispatch.notify_available policy ~task:j;
      wake_idle ~time
    end
  in
  let transfer_duration j = Instance.size instance j /. bandwidth in
  let heal ~time =
    if heals then
      for j = 0 to n - 1 do
        match status.(j) with
        | Done | Lost -> ()
        | Pending | Running ->
            if transfer.(j) = None then begin
              let live = Bitset.cardinal (Bitset.inter alive_set data.(j)) in
              if live >= 1 && live < target_of j then begin
                let src = ref (-1) in
                (try
                   Bitset.iter
                     (fun i ->
                       if available ~time i then begin
                         src := i;
                         raise Exit
                       end)
                     data.(j)
                 with Exit -> ());
                if !src >= 0 then begin
                  let dst = ref (-1) and best = ref max_int in
                  for i = 0 to m - 1 do
                    if
                      available ~time i
                      && (not (Bitset.mem data.(j) i))
                      && replica_load.(i) < !best
                    then begin
                      dst := i;
                      best := replica_load.(i)
                    end
                  done;
                  if !dst >= 0 then begin
                    incr transfer_id;
                    transfer.(j) <- Some (!src, !dst, !transfer_id);
                    replica_load.(!dst) <- replica_load.(!dst) + 1;
                    emit
                      (Rereplication_started
                         { time; task = j; src = !src; dst = !dst });
                    push
                      ~time:(time +. transfer_duration j)
                      ~machine:!dst ~cls:R_event.cls_arrival
                      (Sim_transfer
                         { task = j; src = !src; dst = !dst; id = !transfer_id })
                  end
                end
              end
            end
      done
  in
  let abort_transfers ~time x =
    for j = 0 to n - 1 do
      match transfer.(j) with
      | Some (src, dst, _) when src = x || dst = x ->
          transfer.(j) <- None;
          replica_load.(dst) <- replica_load.(dst) - 1;
          emit (Rereplication_aborted { time; task = j; src; dst });
          Metrics.incr (Metrics.counter metrics "engine.transfer_aborts")
      | _ -> ()
    done
  in
  let start_copy ?resume ~time i j =
    let ms = machine i in
    let c =
      match resume with
      | None ->
          R_ms.fresh_copy ~task:j ~time
            ~work:(Realization.actual realization j)
      | Some banked ->
          R_ms.resumed_copy ~task:j ~time
            ~work:(Realization.actual realization j)
            ~banked
    in
    ms.R_ms.current <- Some c;
    ms.R_ms.gen <- ms.R_ms.gen + 1;
    let was_primary = copies.(j) = [] in
    copies.(j) <- i :: copies.(j);
    set_status j Running;
    loads.(i) <- loads.(i) +. Instance.est instance j;
    Metrics.incr mc_dispatches;
    if was_primary then begin
      if task_gen.(j) > 0 then Metrics.incr mc_redispatches
    end
    else Metrics.incr mc_spec_starts;
    emit (Started { time; machine = i; task = j });
    (match resume with
    | Some banked ->
        ms.R_ms.ckpt <- None;
        emit (Checkpoint_resumed { time; machine = i; task = j; progress = banked });
        Metrics.incr (Metrics.counter metrics "engine.checkpoint_resumes")
    | None -> ());
    let finish = time +. (c.R_ms.c_remaining /. eff_speed i) in
    push ~time:finish ~machine:i ~cls:R_event.cls_arrival
      (Sim_complete { gen = ms.R_ms.gen });
    match speculation with
    | Some beta when was_primary ->
        let expected = Instance.est instance j /. base_speed i in
        push
          ~time:(time +. (beta *. expected))
          ~machine:i ~cls:R_event.cls_audit
          (Sim_speculate { task = j; gen = task_gen.(j) })
    | _ -> ()
  in
  let release_task ~time j =
    task_gen.(j) <- task_gen.(j) + 1;
    spec_ready.(j) <- false;
    if
      Bitset.is_empty (Bitset.inter alive_set data.(j)) && transfer.(j) = None
    then set_status j Lost
    else begin
      set_status j Pending;
      R_dispatch.notify_available policy ~task:j;
      wake_idle ~time
    end
  in
  let kill_current ?(salvage = false) ~time i =
    let ms = machine i in
    match ms.R_ms.current with
    | None -> ()
    | Some c ->
        let j = c.R_ms.c_task in
        let wall = time -. c.R_ms.c_started in
        let waste = ref wall in
        if salvage && ckpt_interval > 0.0 then begin
          let remaining_now =
            R_ms.remaining_at c ~time ~speed:(eff_speed i)
          in
          let attempt_total =
            Realization.actual realization j -. c.R_ms.c_base
          in
          let done_attempt = attempt_total -. remaining_now in
          let total_done = c.R_ms.c_base +. done_attempt in
          let preserved =
            Float.min total_done
              (Float.floor (total_done /. ckpt_interval) *. ckpt_interval)
          in
          if preserved > 0.0 then begin
            ms.R_ms.ckpt <- Some (j, preserved);
            if done_attempt > 0.0 then begin
              let credit =
                Float.max 0.0
                  (Float.min done_attempt (preserved -. c.R_ms.c_base))
              in
              waste := wall *. (1.0 -. (credit /. done_attempt))
            end
          end
        end;
        wasted := !wasted +. !waste;
        Metrics.incr mc_kills;
        if live then busy.(i) <- busy.(i) +. wall;
        ms.R_ms.current <- None;
        ms.R_ms.gen <- ms.R_ms.gen + 1;
        emit (Killed { time; machine = i; task = j });
        copies.(j) <- List.filter (fun k -> k <> i) copies.(j);
        if copies.(j) = [] then
          if rec_active && det_latency > 0.0 then ms.R_ms.orphan <- Some j
          else release_task ~time j
  in
  let strand_scan i =
    for j = 0 to n - 1 do
      if
        status.(j) = Pending
        && Bitset.mem data.(j) i
        && Bitset.is_empty (Bitset.inter alive_set data.(j))
        && transfer.(j) = None
      then set_status j Lost
    done
  in
  let acknowledge ~time i =
    let ms = machine i in
    match ms.R_ms.undetected with
    | None -> ()
    | Some t0 ->
        ms.R_ms.undetected <- None;
        emit (Failure_detected { time; machine = i });
        Metrics.observe
          (Metrics.histogram metrics "engine.detection_lag")
          (time -. t0);
        (match ms.R_ms.orphan with
        | Some j ->
            ms.R_ms.orphan <- None;
            if status.(j) = Running && copies.(j) = [] then
              release_task ~time j
        | None -> ());
        if not ms.R_ms.alive then strand_scan i
  in
  let on_transfer ~time ~task ~src ~dst ~id =
    match transfer.(task) with
    | Some (_, _, id') when id' = id ->
        transfer.(task) <- None;
        Bitset.add data.(task) dst;
        emit (Rereplication_completed { time; task; src; dst });
        Metrics.incr (Metrics.counter metrics "engine.rereplications");
        Metrics.observe
          (Metrics.histogram metrics "engine.transfer_time")
          (transfer_duration task);
        if status.(task) = Pending then begin
          R_dispatch.notify_available policy ~task;
          wake_idle ~time
        end;
        heal ~time
    | _ -> ()
  in
  let find_speculation i =
    let rec scan pos =
      if pos >= n then None
      else
        let j = order.(pos) in
        if
          status.(j) = Running && spec_ready.(j)
          && (match copies.(j) with [ k ] -> k <> i | _ -> false)
          && Bitset.mem data.(j) i
        then Some j
        else scan (pos + 1)
    in
    if speculation = None then None else scan 0
  in
  let resume_candidate i =
    match (machine i).R_ms.ckpt with
    | Some (j, banked) when status.(j) = Pending && Bitset.mem data.(j) i ->
        Some (j, banked)
    | _ -> None
  in
  let dispatch_machine ~time i =
    let ms = machine i in
    if available ~time i && ms.R_ms.current = None then
      match resume_candidate i with
      | Some (j, banked) -> start_copy ~resume:banked ~time i j
      | None -> (
          match R_dispatch.select policy ~time ~machine:i with
          | Some j -> start_copy ~time i j
          | None -> (
              match find_speculation i with
              | Some j -> start_copy ~time i j
              | None -> ()))
  in
  let complete ~time i gen =
    let ms = machine i in
    match ms.R_ms.current with
    | Some c when gen = ms.R_ms.gen ->
        let j = c.R_ms.c_task in
        entries.(j) <-
          { Schedule.machine = i; start = c.R_ms.c_started; finish = time };
        set_status j Done;
        ms.R_ms.current <- None;
        ms.R_ms.gen <- ms.R_ms.gen + 1;
        if live then
          busy.(i) <- busy.(i) +. (time -. c.R_ms.c_started);
        emit (Completed { time; machine = i; task = j });
        (match arrivals with
        | None -> ()
        | Some arr -> Metrics.observe mh_latency (time -. arr.(j)));
        let losers = List.filter (fun k -> k <> i) copies.(j) in
        copies.(j) <- [];
        List.iter
          (fun k ->
            let mk = machine k in
            (match mk.R_ms.current with
            | Some ck ->
                wasted := !wasted +. (time -. ck.R_ms.c_started);
                if live then
                  busy.(k) <- busy.(k) +. (time -. ck.R_ms.c_started)
            | None -> assert false);
            mk.R_ms.current <- None;
            mk.R_ms.gen <- mk.R_ms.gen + 1;
            Metrics.incr mc_spec_cancelled;
            emit (Cancelled { time; machine = k; task = j }))
          losers;
        List.iter (dispatch_machine ~time)
          (R_dispatch.redispatch_order policy (i :: losers))
    | _ -> ()
  in
  let on_fault ~time i kind =
    let ms = machine i in
    match kind with
    | Fault.Crash ->
        if ms.R_ms.alive then begin
          Metrics.incr mc_crashes;
          R_ms.mark_crashed st i;
          emit (Machine_crashed { time; machine = i });
          ms.R_ms.ckpt <- None;
          if rec_active then abort_transfers ~time i;
          kill_current ~time i;
          if rec_active && det_latency > 0.0 then begin
            if ms.R_ms.undetected = None then ms.R_ms.undetected <- Some time;
            push ~time:(time +. det_latency) ~machine:i
              ~cls:R_event.cls_fault Sim_detect
          end
          else begin
            strand_scan i;
            if rec_active then heal ~time
          end
        end
    | Fault.Outage until ->
        if ms.R_ms.alive then begin
          Metrics.incr mc_outages;
          ms.R_ms.down_until <- Float.max ms.R_ms.down_until until;
          emit (Machine_down { time; machine = i; until = ms.R_ms.down_until });
          kill_current ~salvage:true ~time i;
          if rec_active then begin
            if det_latency > 0.0 && ms.R_ms.orphan <> None then begin
              if ms.R_ms.undetected = None then ms.R_ms.undetected <- Some time;
              push ~time:(time +. det_latency) ~machine:i
                ~cls:R_event.cls_fault Sim_detect
            end
          end;
          push ~time:ms.R_ms.down_until ~machine:i ~cls:R_event.cls_fault Sim_up
        end
    | Fault.Slowdown factor ->
        Metrics.incr mc_slowdowns;
        let old_speed = eff_speed i in
        ms.R_ms.factor <- factor;
        emit (Machine_slowed { time; machine = i; factor });
        (match ms.R_ms.current with
        | Some c ->
            R_ms.sync_remaining c ~time ~speed:old_speed;
            ms.R_ms.gen <- ms.R_ms.gen + 1;
            push
              ~time:(time +. (c.R_ms.c_remaining /. eff_speed i))
              ~machine:i ~cls:R_event.cls_arrival
              (Sim_complete { gen = ms.R_ms.gen })
        | None -> ())
  in
  let on_up ~time i =
    let ms = machine i in
    if ms.R_ms.alive && time >= ms.R_ms.down_until then begin
      emit (Machine_up { time; machine = i });
      if rec_active then begin
        acknowledge ~time i;
        heal ~time
      end;
      dispatch_machine ~time i
    end
  in
  let on_detect ~time i =
    acknowledge ~time i;
    heal ~time
  in
  let on_speculate ~time task gen =
    if
      task_gen.(task) = gen && status.(task) = Running
      && List.length copies.(task) = 1
    then begin
      spec_ready.(task) <- true;
      let runner = List.hd copies.(task) in
      let exception Found of int in
      match
        Bitset.iter
          (fun i ->
            if i <> runner && R_ms.idle st ~time i then
              raise (Found i))
          data.(task)
      with
      | () -> ()
      | exception Found i -> start_copy ~time i task
    end
  in
  if rec_active then heal ~time:0.0;
  R_event.drain queue ~handle:(fun ~time ~machine sim ->
      Metrics.incr mc_events;
      match sim with
      | Sim_fault kind -> on_fault ~time machine kind
      | Sim_up -> on_up ~time machine
      | Sim_detect -> on_detect ~time machine
      | Sim_arrive { task } -> on_arrive ~time task
      | Sim_complete { gen } -> complete ~time machine gen
      | Sim_transfer { task; src; dst; id } ->
          on_transfer ~time ~task ~src ~dst ~id
      | Sim_dispatch -> dispatch_machine ~time machine
      | Sim_speculate { task; gen } -> on_speculate ~time task gen);
  let fates =
    Array.init n (fun j ->
        match status.(j) with
        | Done -> Finished entries.(j)
        | Lost | Pending | Running -> Stranded)
  in
  let completed = ref 0 and stranded = ref [] and makespan = ref 0.0 in
  for j = n - 1 downto 0 do
    match fates.(j) with
    | Finished e ->
        incr completed;
        makespan := Float.max !makespan e.Schedule.finish
    | Stranded -> stranded := j :: !stranded
  done;
  if live then begin
    Metrics.add mc_completed !completed;
    Metrics.add mc_stranded (List.length !stranded);
    Metrics.set mg_makespan !makespan;
    Metrics.set mg_wasted !wasted;
    for i = 0 to m - 1 do
      Metrics.observe mh_idle (!makespan -. busy.(i))
    done
  end;
  {
    fates;
    completed = !completed;
    stranded = !stranded;
    makespan = !makespan;
    wasted = !wasted;
    metrics = Metrics.snapshot metrics;
  }

let run_faulty_traced ?speeds ?speculation ?(dispatch = Dispatch.default)
    ?(recovery = Recovery.none) ?(metrics = Metrics.disabled) instance
    realization ~faults ~placement ~order =
  let events = ref [] in
  let outcome =
    run_faulty_internal ?speeds ?speculation ~dispatch ~recovery ~metrics
      ~arrivals:None instance realization ~faults ~placement ~order
      ~emit:(fun e -> events := e :: !events)
  in
  (outcome, sort_events (List.rev !events))

let stream_latencies ~arrivals (outcome : Engine.outcome) =
  let acc = ref [] in
  for j = Array.length outcome.fates - 1 downto 0 do
    match outcome.fates.(j) with
    | Finished e -> acc := (e.Schedule.finish -. arrivals.(j)) :: !acc
    | Stranded -> ()
  done;
  Array.of_list !acc

let run_stream_traced ?speeds ?speculation ?(dispatch = Dispatch.default)
    ?(recovery = Recovery.none) ?(metrics = Metrics.disabled) ?faults instance
    realization ~arrivals ~placement ~order =
  let faults =
    match faults with Some f -> f | None -> Trace.empty ~m:(Instance.m instance)
  in
  let events = ref [] in
  let outcome =
    run_faulty_internal ?speeds ?speculation ~dispatch ~recovery ~metrics
      ~arrivals:(Some arrivals) instance realization ~faults ~placement ~order
      ~emit:(fun e -> events := e :: !events)
  in
  ( { outcome; latencies = stream_latencies ~arrivals outcome },
    sort_events (List.rev !events) )
