(* The phase-2 engine, over two desim layers:

   - [Event_heap]: the event queue (struct-of-arrays 4-ary heap) and the
     simultaneous-event ordering contract;
   - [Dispatch]: the pluggable policy deciding which eligible task an
     idle machine starts, and the re-dispatch order of machines freed
     at the same instant.

   One event loop ([replay]) serves every entry point; a healthy run is
   the empty fault trace. What remains here is the physics: what a
   crash, outage, slowdown, completion, transfer, checkpoint, or
   speculation event does to the shared task and machine state, held in
   flat int/float lanes, and the observability taps around it.

   The loop allocates nothing on the minor heap per event when metrics
   and tracing are off: event payload data rides the heap's integer
   [aux] lanes, the clock lives in a one-cell float array instead of
   crossing calls as a boxed float, trace records are written only under
   a [match sink] guard, and full-length lanes land in the major heap. *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Set_table = Usched_model.Set_table
module Holders = Usched_model.Holders
module Realization = Usched_model.Realization
module Topology = Usched_model.Topology
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace
module Json = Usched_report.Json

type event =
  | Arrived of { time : float; task : int }
  | Started of { time : float; machine : int; task : int }
  | Completed of { time : float; machine : int; task : int }
  | Killed of { time : float; machine : int; task : int }
  | Cancelled of { time : float; machine : int; task : int }
  | Machine_crashed of { time : float; machine : int }
  | Machine_down of { time : float; machine : int; until : float }
  | Machine_up of { time : float; machine : int }
  | Machine_slowed of { time : float; machine : int; factor : float }
  | Failure_detected of { time : float; machine : int }
  | Rereplication_started of { time : float; task : int; src : int; dst : int }
  | Rereplication_completed of {
      time : float;
      task : int;
      src : int;
      dst : int;
    }
  | Rereplication_aborted of { time : float; task : int; src : int; dst : int }
  | Checkpoint_resumed of {
      time : float;
      machine : int;
      task : int;
      progress : float;
    }

exception Unschedulable of int list

(* ------------------------------------------------------------------ *)
(* Event records: fixed layouts written straight into the trace sink.  *)
(* ------------------------------------------------------------------ *)

(* The opening of an event record, up to the colon before its time. *)
let head kind = Printf.sprintf {|{"type":"event","kind":"%s","t":|} kind

let k_arrived = head "arrived"
let k_started = head "started"
let k_completed = head "completed"
let k_killed = head "killed"
let k_cancelled = head "cancelled"
let k_crashed = head "machine_crashed"
let k_down = head "machine_down"
let k_up = head "machine_up"
let k_slowed = head "machine_slowed"
let k_detected = head "failure_detected"
let k_rerep_started = head "rereplication_started"
let k_rerep_completed = head "rereplication_completed"
let k_rerep_aborted = head "rereplication_aborted"
let k_resumed = head "checkpoint_resumed"

let field s key v =
  Sink.literal s key;
  Sink.int s v

let close_record s =
  Sink.literal s "}";
  Sink.end_record s

(* Every writer reads its floats out of the cells that hold them: the
   time out of the one-cell [clock] (the engine's [now]), a float field
   out of [column.(x)]; a float argument would be boxed per record. *)

(* [kind] at the [clock]'s time on [machine] *)
let rec_m s kind clock machine =
  Sink.literal s kind;
  Sink.float s clock 0;
  field s {|,"machine":|} machine;
  close_record s

(* [kind] of [task]'s copy on [machine] *)
let rec_mt s kind clock machine task =
  Sink.literal s kind;
  Sink.float s clock 0;
  field s {|,"machine":|} machine;
  field s {|,"task":|} task;
  close_record s

(* [kind] on [machine], with one float field [key] *)
let rec_mx s kind key clock machine column x =
  Sink.literal s kind;
  Sink.float s clock 0;
  field s {|,"machine":|} machine;
  Sink.literal s key;
  Sink.float s column x;
  close_record s

let rec_arrived s clock task =
  Sink.literal s k_arrived;
  Sink.float s clock 0;
  field s {|,"task":|} task;
  close_record s

let rec_transfer s kind clock task src dst =
  Sink.literal s kind;
  Sink.float s clock 0;
  field s {|,"task":|} task;
  field s {|,"src":|} src;
  field s {|,"dst":|} dst;
  close_record s

let rec_resumed s clock machine task column x =
  Sink.literal s k_resumed;
  Sink.float s clock 0;
  field s {|,"machine":|} machine;
  field s {|,"task":|} task;
  Sink.literal s {|,"progress":|};
  Sink.float s column x;
  close_record s

let write_event s event =
  let cell time = Array.make 1 time in
  match event with
  | Arrived { time; task } -> rec_arrived s (cell time) task
  | Started { time; machine; task } -> rec_mt s k_started (cell time) machine task
  | Completed { time; machine; task } -> rec_mt s k_completed (cell time) machine task
  | Killed { time; machine; task } -> rec_mt s k_killed (cell time) machine task
  | Cancelled { time; machine; task } -> rec_mt s k_cancelled (cell time) machine task
  | Machine_crashed { time; machine } -> rec_m s k_crashed (cell time) machine
  | Machine_down { time; machine; until } ->
      rec_mx s k_down {|,"until":|} (cell time) machine (cell until) 0
  | Machine_up { time; machine } -> rec_m s k_up (cell time) machine
  | Machine_slowed { time; machine; factor } ->
      rec_mx s k_slowed {|,"factor":|} (cell time) machine (cell factor) 0
  | Failure_detected { time; machine } -> rec_m s k_detected (cell time) machine
  | Rereplication_started { time; task; src; dst } ->
      rec_transfer s k_rerep_started (cell time) task src dst
  | Rereplication_completed { time; task; src; dst } ->
      rec_transfer s k_rerep_completed (cell time) task src dst
  | Rereplication_aborted { time; task; src; dst } ->
      rec_transfer s k_rerep_aborted (cell time) task src dst
  | Checkpoint_resumed { time; machine; task; progress } ->
      rec_resumed s (cell time) machine task (cell progress) 0

(* The inverse of [write_event] on a parsed record. Floats read back
   exactly (the rendering round-trips); [null], which only a non-finite
   value renders as, reads back as [infinity]: a permanent outage. *)
let event_of_json j =
  let get key = Option.get (Json.member key j) in
  let int key = match get key with Json.Int i -> i | _ -> assert false in
  let float key =
    match get key with
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> infinity
  in
  let time = float "t" in
  match get "kind" with
  | Json.String "arrived" -> Arrived { time; task = int "task" }
  | Json.String "started" ->
      Started { time; machine = int "machine"; task = int "task" }
  | Json.String "completed" ->
      Completed { time; machine = int "machine"; task = int "task" }
  | Json.String "killed" ->
      Killed { time; machine = int "machine"; task = int "task" }
  | Json.String "cancelled" ->
      Cancelled { time; machine = int "machine"; task = int "task" }
  | Json.String "machine_crashed" -> Machine_crashed { time; machine = int "machine" }
  | Json.String "machine_down" ->
      Machine_down { time; machine = int "machine"; until = float "until" }
  | Json.String "machine_up" -> Machine_up { time; machine = int "machine" }
  | Json.String "machine_slowed" ->
      Machine_slowed { time; machine = int "machine"; factor = float "factor" }
  | Json.String "failure_detected" ->
      Failure_detected { time; machine = int "machine" }
  | Json.String "rereplication_started" ->
      Rereplication_started
        { time; task = int "task"; src = int "src"; dst = int "dst" }
  | Json.String "rereplication_completed" ->
      Rereplication_completed
        { time; task = int "task"; src = int "src"; dst = int "dst" }
  | Json.String "rereplication_aborted" ->
      Rereplication_aborted
        { time; task = int "task"; src = int "src"; dst = int "dst" }
  | Json.String "checkpoint_resumed" ->
      Checkpoint_resumed
        {
          time;
          machine = int "machine";
          task = int "task";
          progress = float "progress";
        }
  | _ -> assert false

(* Run [f] on a memory sink and read its records back as events: the
   event lists of the [_traced] entry points are the trace, parsed, in
   the order it was written, which is chronological. *)
let logged f =
  let sink = Sink.memory () in
  let result = f sink in
  let lines = String.split_on_char '\n' (Sink.contents sink) in
  ( result,
    List.filter_map
      (fun line ->
        if line = "" then None else Some (event_of_json (Json.of_string_exn line)))
      lines )

(* Validates the inputs and returns [pos_of], the inverse of [order].
   Filling it is the permutation check ([-1] marks a task not yet
   seen); while the order is the identity so far nothing is filled,
   and an identity order is its own inverse, returned as is. The
   placement's sets are checked once per distinct set; the error names
   the first task whose set fails. *)
let check_inputs ?speeds ~name instance ~(placement : Holders.t) ~order =
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
  if Holders.n placement <> n then
    invalid_arg (Printf.sprintf "%s: placement length differs from instance" name);
  (match Holders.first_misplaced ~m placement with
  | None -> ()
  | Some j ->
      if Bitset.capacity (Holders.set placement j) <> m then
        invalid_arg (Printf.sprintf "%s: placement of task %d has wrong capacity" name j);
      invalid_arg (Printf.sprintf "%s: task %d is placed nowhere" name j));
  if Array.length order <> n then
    invalid_arg (Printf.sprintf "%s: order length differs from instance" name);
  let not_permutation () =
    invalid_arg (Printf.sprintf "%s: order is not a permutation of task ids" name)
  in
  let rec identity pos =
    if pos < n && order.(pos) = pos then identity (pos + 1) else pos
  in
  let fixed = identity 0 in
  if fixed = n then order
  else begin
    let pos_of = Array.make n (-1) in
    for j = 0 to fixed - 1 do
      pos_of.(j) <- j
    done;
    for pos = fixed to n - 1 do
      let j = order.(pos) in
      if j < 0 || j >= n || pos_of.(j) >= 0 then not_permutation ();
      pos_of.(j) <- pos
    done;
    pos_of
  end

(* ------------------------------------------------------------------ *)
(* The event loop.                                                     *)
(* ------------------------------------------------------------------ *)

(* Task status as unboxed small ints — comparing these never calls the
   polymorphic equality the old variant type did. *)
let st_pending = 0
let st_running = 1
let st_done = 2
let st_lost = 3

(* Simulation event payloads; [Event_heap] classes rank simultaneous
   events on one machine: faults (and failure detections) strike before
   completions (and data-transfer arrivals), completions before dispatch
   decisions, speculation checks last. The per-event integer data rides
   the heap's [aux]/[aux2] lanes, so the frequent constructors are
   constant; only the rare fault and transfer events box a payload. *)
type sim =
  | Sim_fault of Fault.kind
  | Sim_up
  | Sim_detect
  | Sim_arrive  (** task in [aux] *)
  | Sim_complete  (** machine generation in [aux] *)
  | Sim_transfer of { task : int; src : int; dst : int; id : int }
  | Sim_dispatch
  | Sim_speculate  (** task in [aux], task generation in [aux2] *)

(* What a replay leaves behind: per task, the machine whose copy
   finished it ([-1]: none did) and that copy's start and finish; how
   many tasks finished, the latest finish (0.0 when none did) and the
   machine-time spent on copies that produced nothing. *)
type lanes = {
  e_machine : int array;
  e_start : float array;
  e_finish : float array;
  finished : int;
  last_finish : float;
  waste : float;
}

(* The one event loop behind every entry point; a healthy run is the
   empty fault trace. The loop pays only for what its inputs let a run
   do: a per-task lane or an instrument exists only when a handler can
   read or move it. *)
let replay ~name ?speeds ?speculation ~dispatch ~recovery ~metrics ~sink
    ~arrivals instance realization ~faults ~placement ~order =
  let pos_of = check_inputs ?speeds ~name instance ~placement ~order in
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
  (* Every recovery mechanism is gated by its own parameter: detection
     by [det_latency > 0], healing by [heals], checkpoints by
     [ckpt_interval > 0], acknowledgement by a pending detection.
     [Recovery.none] therefore runs none of them, and the golden qcheck
     property in test_recovery checks it bit-for-bit against a
     structurally-neutral policy. *)
  let det_latency = recovery.Recovery.detection_latency in
  let heals = Recovery.heals recovery in
  (* Who holds each task's data *now*: the placement's distinct sets,
     interned once in phase 1, and each task's index among them, read
     in place. A landed re-replication interns the task's grown set and
     moves the task there, so a healing run works on its own copy of
     both: the placement itself is never written, and any number of
     replays may share it. No interned set is ever mutated. *)
  let current = if heals then Holders.copy placement else placement in
  let sets = current.Holders.table and group_of = current.Holders.index in
  let holders j = Set_table.get sets group_of.(j) in
  (* Each initial set's tasks, in priority order: the group-indexed
     dispatch policies walk them, and so do the crash handlers. *)
  let first, members = Set_table.members sets group_of ~order in
  let spec_on = match speculation with Some _ -> true | None -> false in
  let spec_beta = match speculation with Some b -> b | None -> 0.0 in
  (* The live-replica target is per task: [Fixed r] heals everything
     toward the same count (constant function — bit-for-bit the old
     fixed-degree arithmetic), [Degree] toward the replication degree
     phase 1 gave each task: the size of its placement set, which no
     transfer changes, read off the untouched placement. *)
  let target_of =
    match recovery.Recovery.rereplication_target with
    | Recovery.Fixed r -> fun _ -> r
    | Recovery.Degree ->
        let table = placement.Holders.table and index = placement.Holders.index in
        let degree =
          Array.init (Set_table.count table) (fun g ->
              Bitset.cardinal (Set_table.get table g))
        in
        fun j -> degree.(index.(j))
  in
  let ckpt_interval = recovery.Recovery.checkpoint_interval in
  (* Only a fault kills a copy, so only a non-empty trace can return a
     task to the pool, strand it, or run it twice on one machine. With
     no fault, speculation, healing or arrival no handler reads a task's
     status: it is pending while [dispatchable], done once [e_machine]
     names a machine. *)
  let faulty = match Trace.events faults with [] -> false | _ -> true in
  let streaming = match arrivals with Some _ -> true | None -> false in
  let tracked = faulty || spec_on || heals || streaming in
  let lane on x = Array.make (if on then n else 0) x in
  (* Observability is write-only: nothing below reads a metric back, so
     the run is bit-for-bit identical with metrics on or off. *)
  let live = Metrics.is_enabled metrics in
  let mc_events = Metrics.counter metrics "engine.events" in
  let mc_dispatches = Metrics.counter metrics "engine.dispatches" in
  let mg_queue = Metrics.gauge metrics "engine.queue_depth_max" in
  let mg_makespan = Metrics.gauge metrics "engine.makespan" in
  let mh_idle = Metrics.histogram metrics "engine.machine_idle" in
  (* Handles register on creation, so the fault, speculation and
     streaming instruments come from [only] the runs that move them. *)
  let only on = if on then metrics else Metrics.disabled in
  let fault_metrics = only faulty in
  let mc_redispatches = Metrics.counter fault_metrics "engine.redispatches" in
  let mc_kills = Metrics.counter fault_metrics "engine.kills" in
  let mc_crashes = Metrics.counter fault_metrics "engine.crashes" in
  let mc_outages = Metrics.counter fault_metrics "engine.outages" in
  let mc_slowdowns = Metrics.counter fault_metrics "engine.slowdowns" in
  let spec_metrics = only spec_on in
  let mc_spec_starts = Metrics.counter spec_metrics "engine.spec_starts" in
  let mc_spec_cancelled = Metrics.counter spec_metrics "engine.spec_cancelled" in
  let arr = match arrivals with Some a -> a | None -> [||] in
  let stream_metrics = only streaming in
  let mc_arrivals = Metrics.counter stream_metrics "engine.arrivals" in
  let mh_latency = Metrics.histogram stream_metrics "engine.latency" in
  let busy = if live then Array.make m 0.0 else [||] in
  (* The columns themselves, read in place: a per-element read through
     [Instance.est] would box every float it returns. Nothing below
     writes into them. *)
  let actuals = Realization.actuals realization in
  let ests = Instance.ests instance in
  let sizes = Instance.sizes instance in
  (* Staging: with a topology, the first copy of task j on each machine
     pulls j's data from its home machine [j mod m] before processing
     starts, charged as extra work at the machine's current speed so the
     slowdown-resync and checkpoint arithmetic needs no special case.
     [staged.(j)] records the machines holding j's data warm, so a
     re-dispatch after a kill, a checkpoint resume or a landed transfer
     never pays twice; without faults or healing no task comes back to a
     machine, and no set is kept. Without a topology the float
     arithmetic is the pre-topology engine's, and a single-zone topology
     charges exactly zero — the golden qcheck pins both. *)
  let topo = Instance.topology instance in
  let restage = Option.is_some topo && (faulty || heals) in
  let staged =
    if restage then Array.init n (fun _ -> Bitset.create m) else [||]
  in
  let staging = Array.make 1 0.0 in
  (* Per-machine state, one unboxed int/float lane per field (full-length
     lanes land in the major heap, so mutating them never touches the
     minor allocator); every handler below indexes them directly. The
     in-flight copy is the [cur_*] lanes, with [cur_task = -1] meaning
     idle; the recovery bookkeeping uses sentinels ([orphan = -1],
     [undetected = nan], [ckpt_task = -1]) and keeps its initial values
     throughout under [Recovery.none]. *)
  let base = match speeds with None -> Array.make m 1.0 | Some s -> Array.copy s in
  let alive = Array.make m true in
  let alive_set = Bitset.full m in
  (* The machine is unavailable while [now < down_until]. *)
  let down_until = Array.make m 0.0 in
  (* Straggler speed multiplier. *)
  let factor = Array.make m 1.0 in
  (* Bumped to invalidate the machine's queued completion events. *)
  let gen = Array.make m 0 in
  let cur_task = Array.make m (-1) in
  let cur_started = Array.make m 0.0 in
  (* Actual-time units of work left, as of [cur_last]. *)
  let cur_remaining = Array.make m 0.0 in
  let cur_last = Array.make m 0.0 in
  (* Actual-time units the copy resumed from a checkpoint. *)
  let cur_base = Array.make m 0.0 in
  (* The copy an undetected failure killed, and that failure's time. *)
  let orphan = Array.make m (-1) in
  let undetected = Array.make m Float.nan in
  (* The task the machine's last checkpoint preserved, and its work. *)
  let ckpt_task = Array.make m (-1) in
  let ckpt_work = Array.make m 0.0 in
  (* The simulation clock: the time of the event being handled. A
     one-cell float array, not a [float ref] or an argument: storing into
     it is unboxed, and the handlers below take no float arguments, which
     a closure call would box. *)
  let now = Array.make 1 0.0 in
  let available i = alive.(i) && down_until.(i) <= now.(0) in
  let idle i = available i && cur_task.(i) < 0 in
  let status = lane tracked st_pending in
  (* In a streaming run a task is invisible to the scheduler until its
     arrival fires; batch runs behave as if everything arrived at t=0. *)
  let arrived = lane streaming false in
  let dispatchable = Array.make n (not streaming) in
  (* Only a fault releases or strands a task: only tracked runs call it. *)
  let set_status j s =
    status.(j) <- s;
    dispatchable.(j) <- s = st_pending && ((not streaming) || arrived.(j))
  in
  (* The machines running a copy of each task under speculation: the
     primary, and the one backup speculation may add ([-1] = none). A
     task with a backup always has a primary; a kill of either leaves
     the survivor as the primary. Without speculation a task runs at
     most one copy, and no handler asks where. *)
  let primary = lane spec_on (-1) in
  let backup = lane spec_on (-1) in
  (* Bumped when a task returns to the pool: a re-dispatch, and a stale
     straggler check. *)
  let task_gen = lane (faulty || spec_on) 0 in
  (* The speculation candidate pool: every running task whose straggler
     check has fired, densely packed in [spec_pool.(0 .. !spec_len - 1)]
     with [spec_slot.(j)] its index there ([-1] = absent). A task enters
     when [on_speculate] arms it and leaves when it is released or
     completes, so the pool never holds more than the running tasks and
     an idle machine's backup search costs the pool, not n. *)
  let spec_pool = lane spec_on 0 in
  let spec_slot = lane spec_on (-1) in
  let spec_len = ref 0 in
  let spec_leave j =
    let s = spec_slot.(j) in
    if s >= 0 then begin
      decr spec_len;
      let last = spec_pool.(!spec_len) in
      spec_pool.(s) <- last;
      spec_slot.(last) <- s;
      spec_slot.(j) <- -1
    end
  in
  (* In-flight re-replication per task: (src, dst, id), and the set of
     tasks with one in flight. The id guards against stale
     [Sim_transfer] deliveries after an abort. Only the healer starts
     transfers. *)
  let transfer = lane heals (None : (int * int * int) option) in
  let in_flight = Bitset.create (if heals then n else 0) in
  let transfer_none j =
    (not heals) || match transfer.(j) with None -> true | Some _ -> false
  in
  let transfer_id = ref 0 in
  (* Replicas stored on (or reserved for) each machine: the healer's
     least-loaded destination choice. *)
  let replica_load = Array.make m 0 in
  if heals then
    for g = 0 to Array.length first - 2 do
      let count = first.(g + 1) - first.(g) in
      Bitset.iter
        (fun i -> replica_load.(i) <- replica_load.(i) + count)
        (Set_table.get sets g)
    done;
  (* The tasks whose data a machine holds, for the crash handlers: the
     initial sets list their tasks, and each machine the tasks whose
     re-replications landed on it. Sets only grow, so a task holds
     machine [i] exactly when its initial set did or a transfer to [i]
     landed, and [holding] visits each such task once. *)
  let landed = Array.make (if faulty && heals then m else 0) [||] in
  let landed_len = Array.make (if faulty && heals then m else 0) 0 in
  let note_landed j i =
    let len = landed_len.(i) in
    if len = Array.length landed.(i) then begin
      let grown = Array.make (Stdlib.max 4 (2 * len)) 0 in
      Array.blit landed.(i) 0 grown 0 len;
      landed.(i) <- grown
    end;
    landed.(i).(len) <- j;
    landed_len.(i) <- len + 1
  in
  let holding i f =
    for g = 0 to Array.length first - 2 do
      if Bitset.mem (Set_table.get sets g) i then
        for c = first.(g) to first.(g + 1) - 1 do
          f members.(c)
        done
    done;
    if heals then
      for k = 0 to landed_len.(i) - 1 do
        f landed.(i).(k)
      done
  in
  let e_machine = Array.make n (-1) in
  let e_start = Array.make n 0.0 in
  let e_finish = Array.make n 0.0 in
  (* One-cell float arrays, not [float ref]s: storing into a float array
     is unboxed, [:=] on a float ref allocates the new box per store. *)
  let wasted = Array.make 1 0.0 in
  let last = Array.make 1 0.0 in
  let finished = ref 0 in
  let loads = Array.make m 0.0 in
  let policy =
    Dispatch.make dispatch
      {
        Dispatch.n;
        m;
        order;
        pos_of;
        dispatchable;
        sets;
        group_of;
        first;
        members;
        est = ests;
        speed = base;
        load = loads;
        now;
        available;
        topology = topo;
        size = sizes;
      }
  in
  let queue = Event_heap.create ~dummy:Sim_complete in
  (* The deepest the queue got, handed to its gauge once at the end: a
     float passed to [Metrics] per push would be boxed per push. *)
  let max_depth = ref 0 in
  let depth () =
    let d = Event_heap.length queue in
    if d > !max_depth then max_depth := d
  in
  let push ~time ~machine ~cls sim =
    Event_heap.push queue ~time ~machine ~cls sim;
    if live then depth ()
  in
  (* Queue slot [s] of [Event_heap.alloc] once the caller has written its
     time into [times.(size)] (and any payload other than the heap's
     dummy [Sim_complete]): the per-copy pushes pass no float, which a
     closure call would box. *)
  let enqueue s ~machine ~cls ~aux =
    queue.Event_heap.aux.(s) <- aux;
    Event_heap.insert queue s ~machine ~cls;
    if live then depth ()
  in
  (* Queue machine [i] to look for work now. *)
  let wake i =
    let s = Event_heap.alloc queue in
    queue.Event_heap.times.(queue.Event_heap.size) <- now.(0);
    queue.Event_heap.payloads.(s) <- Sim_dispatch;
    enqueue s ~machine:i ~cls:Event_heap.cls_decision ~aux:0
  in
  for i = 0 to m - 1 do
    wake i
  done;
  List.iter
    (fun (e : Fault.event) ->
      push ~time:e.Fault.time ~machine:e.Fault.machine ~cls:Event_heap.cls_fault
        (Sim_fault e.Fault.kind))
    (Trace.events faults);
  (* Arrivals ride the virtual source "machine" -1: at an equal instant
     they strike before every per-machine event, so a stream whose
     arrivals all land at t=0 sees the whole workload before the first
     dispatch decision — exactly the batch engine's starting state. *)
  Array.iteri
    (fun j t ->
      Event_heap.push_aux queue ~time:t ~machine:(-1)
        ~cls:Event_heap.cls_arrival ~aux:j ~aux2:0 Sim_arrive)
    arr;
  (* The queue only grew since the last push that recorded its depth. *)
  if live then depth ();
  (* Task [j] (re-)entered the pool or gained a holder: wake its idle
     holders. [Dispatch]'s work-conservation contract makes
     [select_machine] return -1 exactly when a machine holds no
     dispatchable task, so any other machine's wake could act only
     through [spec_scan]; and every other way a machine becomes able to
     start a backup (going idle, rejoining, a task entering the
     speculation pool) dispatches it directly. The skipped wakes would
     do nothing, and dropping them moves no other event in the (time,
     machine, class, seq) order.

     Two paths make a backup startable on an already idle machine
     without waking it: a kill leaves a speculated task with one copy,
     or a transfer lands on a pool member. Waking all idle machines
     used to start such a backup at the next unrelated wake, so either
     path sets the sticky [wake_all] and every later wake scans all m
     machines again. Both need speculation plus a kill or a
     re-replication. *)
  let wake_all = ref false in
  let everyone = Bitset.full m in
  let rec wake_members h i =
    let i = Bitset.next h i in
    if i >= 0 then begin
      if idle i then wake i;
      wake_members h (i + 1)
    end
  in
  let wake_idle j = wake_members (if !wake_all then everyone else holders j) 0 in
  (* A task arrives: it becomes visible to the scheduler and, if still
     alive (early faults may have stranded it before it even showed up),
     joins the dispatch pool. *)
  let on_arrive j =
    arrived.(j) <- true;
    Metrics.incr mc_arrivals;
    (match sink with Some s -> rec_arrived s now j | None -> ());
    if status.(j) = st_pending then begin
      dispatchable.(j) <- true;
      Dispatch.notify_available policy ~task:j;
      wake_idle j
    end
  in
  (* Online re-replication: copy every under-replicated task's data from
     its lowest-numbered available holder to the least-loaded available
     non-holder, one transfer per task at a time. Transfers survive
     outages of either endpoint (the stream is buffered; the data lands
     on the destination disk) but abort when an endpoint crashes. The
     transfer time is path-dependent: cross-zone copies add the zone
     link's latency and are capped by its bandwidth ([None]/single-zone
     reduce to the scalar [size / bandwidth], bit-for-bit). *)
  let transfer_duration ~src ~dst j =
    Recovery.transfer_time ?topology:topo recovery ~src ~dst ~size:sizes.(j)
  in
  (* The healer's worklist: a superset of the tasks it could act on,
     {j : status <= running, 1 <= live holders < target j}. Status only
     ever leaves that set. Live holders shrink only at a physical crash,
     which re-checks every task the dead disk held. They grow only when
     a transfer lands, which cannot bring a task in (its source was a
     live holder) and finds it still listed: [heal] keeps a task while
     its transfer is in flight, or while it lacks an available source
     or destination, and drops everything else outside the set lazily.
     It visits the list in increasing id, the order of a full scan, so
     transfers and destination loads come out identical. *)
  let needy = Bitset.create (if heals then n else 0) in
  let wants_heal j =
    status.(j) <= st_running
    &&
    let nlive = Bitset.inter_cardinal alive_set (holders j) in
    nlive >= 1 && nlive < target_of j
  in
  let recheck j = if wants_heal j then Bitset.add needy j in
  let heal () =
    if heals then
      Bitset.iter
        (fun j ->
          if not (wants_heal j) then Bitset.remove needy j
          else if transfer_none j then begin
            let src = ref (-1) in
            (try
               Bitset.iter
                 (fun i ->
                   if available i then begin
                     src := i;
                     raise Exit
                   end)
                 (holders j)
             with Exit -> ());
            if !src >= 0 then begin
              let dst = ref (-1) and best = ref max_int in
              for i = 0 to m - 1 do
                if
                  available i
                  && (not (Bitset.mem (holders j) i))
                  && replica_load.(i) < !best
                then begin
                  dst := i;
                  best := replica_load.(i)
                end
              done;
              if !dst >= 0 then begin
                let time = now.(0) in
                incr transfer_id;
                transfer.(j) <- Some (!src, !dst, !transfer_id);
                Bitset.add in_flight j;
                replica_load.(!dst) <- replica_load.(!dst) + 1;
                (match sink with
                | Some s -> rec_transfer s k_rerep_started now j !src !dst
                | None -> ());
                push
                  ~time:(time +. transfer_duration ~src:!src ~dst:!dst j)
                  ~machine:!dst ~cls:Event_heap.cls_arrival
                  (Sim_transfer
                     { task = j; src = !src; dst = !dst; id = !transfer_id })
              end
            end
          end)
        needy
  in
  (* Abort every transfer from or to machine [x]: a walk over the
     transfers in flight from task [j] on, in increasing task id. *)
  let rec abort_transfers x j =
    let j = Bitset.next in_flight j in
    if j >= 0 then begin
      (match transfer.(j) with
      | Some (src, dst, _) when src = x || dst = x ->
          transfer.(j) <- None;
          Bitset.remove in_flight j;
          replica_load.(dst) <- replica_load.(dst) - 1;
          (match sink with
          | Some s -> rec_transfer s k_rerep_aborted now j src dst
          | None -> ());
          Metrics.incr (Metrics.counter metrics "engine.transfer_aborts")
      | _ -> ());
      abort_transfers x (j + 1)
    end
  in
  (* A resumed copy banks machine [i]'s checkpointed work. *)
  let start_copy ~resume i j =
    let time = now.(0) in
    let speed = base.(i) *. factor.(i) in
    let work = if resume then actuals.(j) -. ckpt_work.(i) else actuals.(j) in
    let work =
      match topo with
      | None -> work
      | Some _ when restage && Bitset.mem staged.(j) i -> work
      | Some tp ->
          if restage then Bitset.add staged.(j) i;
          Topology.staging_into tp ~src:(j mod m) ~dst:i ~sizes j staging;
          let s = staging.(0) in
          (* Charged as work at the current speed so a later slowdown
             resync rescales the in-flight pull along with the copy. *)
          if s > 0.0 then work +. (s *. speed) else work
    in
    cur_task.(i) <- j;
    cur_started.(i) <- time;
    gen.(i) <- gen.(i) + 1;
    dispatchable.(j) <- false;
    loads.(i) <- loads.(i) +. ests.(j);
    if live then Metrics.incr mc_dispatches;
    (match sink with Some s -> rec_mt s k_started now i j | None -> ());
    let is_backup = spec_on && primary.(j) >= 0 in
    if tracked then begin
      status.(j) <- st_running;
      if spec_on then if is_backup then backup.(j) <- i else primary.(j) <- i;
      if is_backup then Metrics.incr mc_spec_starts
      else if faulty && task_gen.(j) > 0 then Metrics.incr mc_redispatches
    end;
    (* Only a fault reads a copy's progress. *)
    if faulty then begin
      cur_remaining.(i) <- work;
      cur_last.(i) <- time;
      cur_base.(i) <- (if resume then ckpt_work.(i) else 0.0)
    end;
    if resume then begin
      ckpt_task.(i) <- -1;
      (match sink with
      | Some s -> rec_resumed s now i j ckpt_work i
      | None -> ());
      Metrics.incr (Metrics.counter metrics "engine.checkpoint_resumes")
    end;
    let s = Event_heap.alloc queue in
    queue.Event_heap.times.(queue.Event_heap.size) <- time +. (work /. speed);
    enqueue s ~machine:i ~cls:Event_heap.cls_arrival ~aux:gen.(i);
    if spec_on && not is_backup then begin
      (* Arm the straggler check from estimates only: the scheduler is
         semi-clairvoyant and must not peek at actual times. *)
      let s = Event_heap.alloc queue in
      queue.Event_heap.times.(queue.Event_heap.size) <-
        time +. (spec_beta *. (ests.(j) /. base.(i)));
      queue.Event_heap.aux2.(s) <- task_gen.(j);
      queue.Event_heap.payloads.(s) <- Sim_speculate;
      enqueue s ~machine:i ~cls:Event_heap.cls_audit ~aux:j
    end
  in
  (* Return a copy-less task to the scheduler's pool — or declare it
     [Lost] when no live machine holds its data and no transfer is
     carrying it out. Under a detection latency this is what gets
     deferred until the failure becomes known. *)
  let release_task j =
    task_gen.(j) <- task_gen.(j) + 1;
    if spec_on then spec_leave j;
    if Bitset.inter_is_empty alive_set (holders j) && transfer_none j then
      set_status j st_lost
    else begin
      set_status j st_pending;
      Dispatch.notify_available policy ~task:j;
      wake_idle j
    end
  in
  (* Kill the in-flight copy of machine [i] (crash or outage): the work
     is lost — except what a checkpoint salvages on an outage — and the
     task returns to the pool (immediately, or at failure detection when
     the policy models a latency). *)
  let kill_current ~salvage i =
    let j = cur_task.(i) in
    if j >= 0 then begin
      let time = now.(0) in
      let wall = time -. cur_started.(i) in
      let waste =
        if salvage && ckpt_interval > 0.0 then begin
          (* Work processed this attempt, synced exactly as a slowdown
             resync would do it. *)
          let remaining_now =
            Float.max 0.0
              (cur_remaining.(i)
              -. ((time -. cur_last.(i)) *. (base.(i) *. factor.(i))))
          in
          let attempt_total = actuals.(j) -. cur_base.(i) in
          let done_attempt = attempt_total -. remaining_now in
          let total_done = cur_base.(i) +. done_attempt in
          let preserved =
            Float.min total_done
              (Float.floor (total_done /. ckpt_interval) *. ckpt_interval)
          in
          if preserved > 0.0 then begin
            ckpt_task.(i) <- j;
            ckpt_work.(i) <- preserved;
            if done_attempt > 0.0 then begin
              (* Credit the preserved share of this attempt against the
                 waste, pro-rated by wall time so mid-attempt speed
                 changes cannot make the waste negative. *)
              let credit =
                Float.max 0.0
                  (Float.min done_attempt (preserved -. cur_base.(i)))
              in
              wall *. (1.0 -. (credit /. done_attempt))
            end
            else wall
          end
          else wall
        end
        else wall
      in
      wasted.(0) <- wasted.(0) +. waste;
      Metrics.incr mc_kills;
      if live then busy.(i) <- busy.(i) +. wall;
      cur_task.(i) <- -1;
      gen.(i) <- gen.(i) + 1;
      (match sink with Some s -> rec_mt s k_killed now i j | None -> ());
      (* The copy still running the task, if any. *)
      let survivor =
        if not spec_on then -1
        else begin
          if primary.(j) = i then primary.(j) <- backup.(j);
          backup.(j) <- -1;
          primary.(j)
        end
      in
      if survivor >= 0 then wake_all := true
      else if det_latency > 0.0 then orphan.(i) <- j
      else release_task j
    end
  in
  (* The disk of a dead machine [i] is gone: strand every waiting task
     whose last replica it held (unless a transfer is carrying a copy
     out, which keeps the task alive until the transfer resolves). *)
  let strand j =
    if
      status.(j) = st_pending
      && Bitset.inter_is_empty alive_set (holders j)
      && transfer_none j
    then set_status j st_lost
  in
  let strand_scan i = holding i strand in
  (* The moment the scheduler learns of machine [i]'s failure — either
     the detector fires [det_latency] after the fault, or the machine
     truthfully reports its own outage when it rejoins, whichever comes
     first. Only then is the orphaned copy released for re-dispatch. *)
  let acknowledge i =
    let t0 = undetected.(i) in
    if not (Float.is_nan t0) then begin
      let time = now.(0) in
      undetected.(i) <- Float.nan;
      (match sink with Some s -> rec_m s k_detected now i | None -> ());
      Metrics.observe
        (Metrics.histogram metrics "engine.detection_lag")
        (time -. t0);
      let oj = orphan.(i) in
      if oj >= 0 then begin
        orphan.(i) <- -1;
        if status.(oj) = st_running && ((not spec_on) || primary.(oj) < 0)
        then release_task oj
      end;
      if not alive.(i) then strand_scan i
    end
  in
  let on_transfer ~task ~src ~dst ~id =
    match transfer.(task) with
    | Some (_, _, id') when id' = id ->
        transfer.(task) <- None;
        Bitset.remove in_flight task;
        let grown = Bitset.copy (holders task) in
        Bitset.add grown dst;
        group_of.(task) <- Set_table.intern sets grown;
        if faulty then note_landed task dst;
        (* The landed replica is warm: a copy started here later must
           not pay the staging pull again. *)
        if restage then Bitset.add staged.(task) dst;
        (match sink with
        | Some s -> rec_transfer s k_rerep_completed now task src dst
        | None -> ());
        Metrics.incr (Metrics.counter metrics "engine.rereplications");
        Metrics.observe
          (Metrics.histogram metrics "engine.transfer_time")
          (transfer_duration ~src ~dst task);
        if status.(task) = st_pending then begin
          Dispatch.notify_available policy ~task;
          wake_idle task
        end
        else if spec_on && spec_slot.(task) >= 0 then wake_all := true;
        heal ()
    | _ -> () (* aborted (and possibly re-issued): stale delivery *)
  in
  (* The pool member earliest in priority order that is running a single
     overdue copy whose data machine [i] also holds — priority positions
     are unique, so this is the first hit of a walk down [order].
     Speculation is a safety mechanism, not a placement decision, so it
     stays with the engine rather than the dispatch policy. (Defined
     once over integer arguments — a per-call closure would allocate on
     every idle scan.) *)
  let rec spec_scan i k best best_pos =
    if k >= !spec_len then best
    else
      let j = spec_pool.(k) in
      if
        pos_of.(j) < best_pos
        && status.(j) = st_running
        && primary.(j) >= 0
        && primary.(j) <> i
        && backup.(j) < 0
        && Bitset.mem (holders j) i
      then spec_scan i (k + 1) j pos_of.(j)
      else spec_scan i (k + 1) best best_pos
  in
  (* Machine [i], up and idle, starts its next copy. A machine holding a
     checkpoint of a waiting task resumes it in preference to fresh
     work: the banked progress makes it the cheapest copy anyone can
     start. *)
  let start_next i =
    let cj = ckpt_task.(i) in
    if cj >= 0 && status.(cj) = st_pending && Bitset.mem (holders cj) i then
      start_copy ~resume:true i cj
    else begin
      let j = Dispatch.select_machine policy ~machine:i in
      if j >= 0 then start_copy ~resume:false i j
      else if spec_on then begin
        let sj = spec_scan i 0 (-1) max_int in
        if sj >= 0 then start_copy ~resume:false i sj
        (* else idle; woken again when a task it holds returns *)
      end
    end
  in
  let dispatch_machine i = if idle i then start_next i in
  (* A copy's own completion proves its machine up: a fault would have
     killed the copy and staled the event. *)
  let complete i g =
    (* Stale completions (the copy was killed or cancelled) fail the
       generation check. *)
    if cur_task.(i) >= 0 && g = gen.(i) then begin
      let time = now.(0) in
      let j = cur_task.(i) in
      let started = cur_started.(i) in
      e_machine.(j) <- i;
      e_start.(j) <- started;
      e_finish.(j) <- time;
      (* Completions come out in time order: the last one is the
         makespan. *)
      last.(0) <- time;
      incr finished;
      cur_task.(i) <- -1;
      if live then busy.(i) <- busy.(i) +. (time -. started);
      (match sink with Some s -> rec_mt s k_completed now i j | None -> ());
      if tracked then begin
        status.(j) <- st_done;
        if streaming then Metrics.observe mh_latency (time -. arr.(j));
        if spec_on then spec_leave j
      end;
      if spec_on && backup.(j) >= 0 then begin
        (* Two copies race: the first to finish wins and the other one,
           [k], aborts. Both machines are now up and idle. *)
        let k = if primary.(j) = i then backup.(j) else primary.(j) in
        primary.(j) <- -1;
        backup.(j) <- -1;
        assert (cur_task.(k) >= 0);
        wasted.(0) <- wasted.(0) +. (time -. cur_started.(k));
        if live then busy.(k) <- busy.(k) +. (time -. cur_started.(k));
        cur_task.(k) <- -1;
        gen.(k) <- gen.(k) + 1;
        Metrics.incr mc_spec_cancelled;
        (match sink with Some s -> rec_mt s k_cancelled now k j | None -> ());
        let a, b = Dispatch.redispatch_order policy i k in
        start_next a;
        start_next b
      end
      else begin
        (* No backup in flight: the freed machine is the only one to
           re-dispatch. *)
        if spec_on then primary.(j) <- -1;
        start_next i
      end
    end
  in
  let on_fault i kind =
    let time = now.(0) in
    match kind with
    | Fault.Crash ->
        if alive.(i) then begin
          Metrics.incr mc_crashes;
          alive.(i) <- false;
          Bitset.remove alive_set i;
          (* Every task the dead disk held lost a live holder: re-check
             its healer membership now, not at detection, because a
             transfer landing before then heals against [alive_set]. *)
          if heals then holding i recheck;
          (match sink with Some s -> rec_m s k_crashed now i | None -> ());
          (* Physical consequences are immediate: the disk (and any
             checkpoint on it) is gone, in-flight transfers touching the
             machine die, the running copy dies. *)
          ckpt_task.(i) <- -1;
          if heals then abort_transfers i 0;
          kill_current ~salvage:false i;
          if det_latency > 0.0 then begin
            (* The scheduler only reacts once the detector fires. *)
            if Float.is_nan undetected.(i) then undetected.(i) <- time;
            push ~time:(time +. det_latency) ~machine:i
              ~cls:Event_heap.cls_fault Sim_detect
          end
          else begin
            (* Strand every waiting task whose last replica the dead disk
               held, then re-replicate whatever it left under target. *)
            strand_scan i;
            heal ()
          end
        end
    | Fault.Outage until ->
        if alive.(i) then begin
          Metrics.incr mc_outages;
          down_until.(i) <- Float.max down_until.(i) until;
          (match sink with
          | Some s -> rec_mx s k_down {|,"until":|} now i down_until i
          | None -> ());
          kill_current ~salvage:true i;
          (* Detection only matters when a copy was orphaned: the
             outage's other effects wait for the rejoin anyway. *)
          if det_latency > 0.0 && orphan.(i) >= 0 then begin
            if Float.is_nan undetected.(i) then undetected.(i) <- time;
            push ~time:(time +. det_latency) ~machine:i
              ~cls:Event_heap.cls_fault Sim_detect
          end;
          push ~time:down_until.(i) ~machine:i ~cls:Event_heap.cls_fault
            Sim_up
        end
    | Fault.Slowdown f ->
        Metrics.incr mc_slowdowns;
        let old_speed = base.(i) *. factor.(i) in
        factor.(i) <- f;
        (match sink with
        | Some s -> rec_mx s k_slowed {|,"factor":|} now i factor i
        | None -> ());
        if cur_task.(i) >= 0 then begin
          (* Clamped at zero, as [kill_current] does: a slowdown at the
             copy's predicted finish can round the remaining work a few
             ulps below zero, which would complete the copy before the
             slowdown's time. *)
          cur_remaining.(i) <-
            Float.max 0.0
              (cur_remaining.(i) -. ((time -. cur_last.(i)) *. old_speed));
          cur_last.(i) <- time;
          gen.(i) <- gen.(i) + 1;
          let s = Event_heap.alloc queue in
          queue.Event_heap.times.(queue.Event_heap.size) <-
            time +. (cur_remaining.(i) /. (base.(i) *. factor.(i)));
          enqueue s ~machine:i ~cls:Event_heap.cls_arrival ~aux:gen.(i)
        end
  in
  let on_up i =
    if alive.(i) && now.(0) >= down_until.(i) then begin
      (match sink with Some s -> rec_m s k_up now i | None -> ());
      (* The machine reports its own fate truthfully on rejoin, which may
         beat the detector; its return may also unblock healing (as a
         transfer source or destination). *)
      acknowledge i;
      heal ();
      dispatch_machine i
    end
  in
  (* The lowest-numbered idle holder of [j]'s data other than [runner],
     or -1. *)
  let rec idle_holder j runner i =
    if i >= m then -1
    else if i <> runner && Bitset.mem (holders j) i && idle i then i
    else idle_holder j runner (i + 1)
  in
  let on_speculate task g =
    if
      task_gen.(task) = g
      && status.(task) = st_running
      && primary.(task) >= 0
      && backup.(task) < 0
    then begin
      if spec_slot.(task) < 0 then begin
        spec_pool.(!spec_len) <- task;
        spec_slot.(task) <- !spec_len;
        incr spec_len
      end;
      (* Grab an idle surviving holder right now if one exists; otherwise
         the next machine to go idle picks the task up in [start_next]. *)
      let i = idle_holder task primary.(task) 0 in
      if i >= 0 then start_copy ~resume:false i task
    end
  in
  (* An active healer starts working before the first dispatch: a
     placement below the replication target (k = 1, say) is brought up
     to its per-task target from time zero. (Under [Degree] the initial
     placement already meets the target, so this is a no-op there.) *)
  if heals then begin
    for j = 0 to n - 1 do
      recheck j
    done;
    heal ()
  end;
  (* The root stays in the queue, consumed, while its handler runs: the
     handler's first push replaces it with one sift-down. *)
  let slot = ref (Event_heap.next queue) in
  while !slot >= 0 do
    let s = !slot in
    let machine = Event_heap.root_machine queue in
    let a1 = queue.Event_heap.aux.(s) in
    let a2 = queue.Event_heap.aux2.(s) in
    let sim = queue.Event_heap.payloads.(s) in
    now.(0) <- queue.Event_heap.times.(0);
    if live then Metrics.incr mc_events;
    (match sim with
    | Sim_fault kind -> on_fault machine kind
    | Sim_up -> on_up machine
    | Sim_detect ->
        acknowledge machine;
        heal ()
    | Sim_arrive -> on_arrive a1
    | Sim_complete -> complete machine a1
    | Sim_transfer { task; src; dst; id } -> on_transfer ~task ~src ~dst ~id
    | Sim_dispatch -> dispatch_machine machine
    | Sim_speculate -> on_speculate a1 a2);
    slot := Event_heap.next queue
  done;
  if live then begin
    Metrics.record_max mg_queue (float_of_int !max_depth);
    Metrics.set mg_makespan last.(0);
    for i = 0 to m - 1 do
      (* Everything a machine did not spend processing (including
         downtime and its post-crash tail) counts as idle. *)
      Metrics.observe mh_idle (last.(0) -. busy.(i))
    done
  end;
  {
    e_machine;
    e_start;
    e_finish;
    finished = !finished;
    last_finish = last.(0);
    waste = wasted.(0);
  }

let run ?speeds ?(dispatch = Dispatch.default) ?(metrics = Metrics.disabled)
    ?sink instance realization ~placement ~order =
  let l =
    replay ~name:"Engine.run" ?speeds ~dispatch ~recovery:Recovery.none
      ~metrics ~sink ~arrivals:None instance realization
      ~faults:(Trace.empty ~m:(Instance.m instance))
      ~placement ~order
  in
  let n = Array.length l.e_machine in
  if l.finished < n then
    raise
      (Unschedulable (List.filter (fun j -> l.e_machine.(j) < 0) (List.init n Fun.id)));
  Schedule.of_soa ~m:(Instance.m instance) ~machines:l.e_machine
    ~starts:l.e_start ~finishes:l.e_finish

let run_traced ?speeds ?dispatch ?metrics instance realization ~placement
    ~order =
  logged (fun sink ->
      run ?speeds ?dispatch ?metrics ~sink instance realization ~placement ~order)

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)
(* ------------------------------------------------------------------ *)

type fate =
  | Finished of Schedule.entry
  | Stranded

type outcome = {
  fates : fate array;
  completed : int;
  stranded : int list;
  makespan : float;
  wasted : float;
  metrics : Metrics.snapshot;
}

let outcome_schedule ~m outcome =
  if outcome.stranded <> [] then None
  else
    Some
      (Schedule.make ~m
         (Array.map
            (function Finished e -> e | Stranded -> assert false)
            outcome.fates))

(* The outcome of a replay; its three instruments register here, so only
   the entry points that build an outcome list them. *)
let outcome_of ~metrics l =
  let fates =
    Array.mapi
      (fun j i ->
        if i < 0 then Stranded
        else
          Finished
            { Schedule.machine = i; start = l.e_start.(j); finish = l.e_finish.(j) })
      l.e_machine
  in
  let stranded = ref [] in
  for j = Array.length fates - 1 downto 0 do
    if l.e_machine.(j) < 0 then stranded := j :: !stranded
  done;
  Metrics.add (Metrics.counter metrics "engine.completed") l.finished;
  Metrics.add (Metrics.counter metrics "engine.stranded") (List.length !stranded);
  Metrics.set (Metrics.gauge metrics "engine.wasted_work") l.waste;
  {
    fates;
    completed = l.finished;
    stranded = !stranded;
    makespan = l.last_finish;
    wasted = l.waste;
    metrics = Metrics.snapshot metrics;
  }

let run_faulty ?speeds ?speculation ?(dispatch = Dispatch.default)
    ?(recovery = Recovery.none) ?(metrics = Metrics.disabled) ?sink instance
    realization ~faults ~placement ~order =
  outcome_of ~metrics
    (replay ~name:"Engine.run_faulty" ?speeds ?speculation ~dispatch ~recovery
       ~metrics ~sink ~arrivals:None instance realization ~faults ~placement
       ~order)

let run_faulty_traced ?speeds ?speculation ?dispatch ?recovery ?metrics
    instance realization ~faults ~placement ~order =
  logged (fun sink ->
      run_faulty ?speeds ?speculation ?dispatch ?recovery ?metrics ~sink
        instance realization ~faults ~placement ~order)

(* ------------------------------------------------------------------ *)
(* Open-system streaming service mode.                                 *)
(* ------------------------------------------------------------------ *)

type stream_outcome = { outcome : outcome; latencies : float array }

let run_stream ?speeds ?speculation ?(dispatch = Dispatch.default)
    ?(recovery = Recovery.none) ?(metrics = Metrics.disabled) ?faults ?sink
    instance realization ~arrivals ~placement ~order =
  let faults =
    match faults with Some f -> f | None -> Trace.empty ~m:(Instance.m instance)
  in
  let l =
    replay ~name:"Engine.run_faulty" ?speeds ?speculation ~dispatch ~recovery
      ~metrics ~sink ~arrivals:(Some arrivals) instance realization ~faults
      ~placement ~order
  in
  let outcome = outcome_of ~metrics l in
  (* Response time of every finished task, in task-id (= admission)
     order. Stranded tasks contribute nothing: their latency is
     unbounded, and averaging an arbitrary sentinel in would poison the
     quantiles. *)
  let latencies = Array.make l.finished 0.0 and k = ref 0 in
  Array.iteri
    (fun j i ->
      if i >= 0 then (latencies.(!k) <- l.e_finish.(j) -. arrivals.(j); incr k))
    l.e_machine;
  { outcome; latencies }

(* ------------------------------------------------------------------ *)
(* JSON of single events and outcomes.                                 *)
(* ------------------------------------------------------------------ *)

let event_json e =
  let s = Sink.memory () in
  write_event s e;
  Json.of_string_exn (Sink.contents s)

let outcome_json outcome =
  Json.Obj
    [
      ("type", Json.String "outcome");
      ("completed", Json.Int outcome.completed);
      ("stranded", Json.List (List.map (fun j -> Json.Int j) outcome.stranded));
      ("makespan", Json.float outcome.makespan);
      ("wasted", Json.float outcome.wasted);
      ("metrics", Metrics.to_json outcome.metrics);
    ]
