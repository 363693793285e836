(** The phase-2 execution engine, over {!Event_heap} (the event queue
    and its simultaneous-event ordering contract) and {!Dispatch} (the
    pluggable policy deciding which eligible task an idle machine
    starts).

    Every online policy in the paper is an instance of {e
    eligibility-restricted list scheduling}: tasks carry a fixed priority
    order, and whenever a machine becomes idle it starts the
    highest-priority unscheduled task whose data it holds. The engine
    simulates this with a machine-idle event queue; actual processing
    times drive the clock (they are only "revealed" through completion
    events, exactly the semi-clairvoyant model of the paper).

    Instances of this engine:
    - LPT-No Restriction: full placement, order = estimates descending;
    - Graham LS: full placement, order = submission order;
    - LS-Group phase 2: group placement, order = phase-1 group assignment
      order;
    - static strategies: singleton placements (the order is irrelevant).

    The {e which-eligible-task} rule is a first-class parameter: every
    entry point takes [?dispatch:Dispatch.spec] (default
    [Dispatch.List_priority], bit-for-bit the historical behavior).
    Alternative policies — least-loaded holder, earliest estimated
    completion, seeded random tie-breaking — only see scheduler-visible
    state, so the semi-clairvoyant model is preserved whichever policy
    runs.

    Determinism: simultaneous idle machines are served in increasing
    machine id (machines freed at the same instant re-dispatch in
    increasing machine id too — [Dispatch.redispatch_order] is the
    single home of that contract); the dispatch policy breaks all other
    ties (the default follows the task order).

    {!run_faulty} extends the same engine with dynamic fault injection
    (see [Usched_faults]): machines crash permanently mid-run, blink out
    transiently, or degrade into stragglers, and the engine re-dispatches
    killed work to surviving replica holders — the Hadoop fault-tolerance
    story from the paper's introduction, made executable. Every entry
    point runs the same event loop: {!run} is {!run_faulty} on the empty
    fault trace, without speculation or recovery, and {!run_stream} adds
    arrivals. The loop pays only for what its inputs let a run do, so a
    healthy run keeps no fault, speculation or streaming state.

    {b Observability}: every entry point accepts an optional
    [Usched_obs.Metrics] registry. When one is passed, the engine records
    (write-only — metrics never influence the simulation, so outputs are
    bit-for-bit identical with metrics on or off):

    - [engine.events] (counter): simulation events processed, each
      pushed event counted once when it leaves the queue. A task
      entering the pool wakes only its idle holders, so this is not
      m events per arrival;
    - [engine.dispatches] (counter): task copies started;
    - [engine.redispatches] (counter): copies started for a task whose
      previous copies were all killed (fault recovery);
    - [engine.spec_starts] / [engine.spec_cancelled] (counters):
      speculative backup copies started / aborted after losing the race;
    - [engine.kills] (counter): in-flight copies killed by crash/outage;
    - [engine.crashes] / [engine.outages] / [engine.slowdowns] (counters);
    - [engine.completed] / [engine.stranded] (counters);
    - [engine.queue_depth_max] (gauge): high-water mark of the event
      queue;
    - [engine.makespan] / [engine.wasted_work] (gauges);
    - [engine.machine_idle] (histogram): per-machine time not spent
      processing, over [[0, makespan]] (downtime and a crashed machine's
      tail count as idle).

    An instrument is registered only in runs that can move it: the
    fault counters ([redispatches], [kills], [crashes], [outages],
    [slowdowns]) on a non-empty fault trace, [spec_starts] and
    [spec_cancelled] with speculation, and [completed], [stranded] and
    [wasted_work] by the entry points that return an {!outcome}. A
    {!run} registers [events], [dispatches], [queue_depth_max],
    [makespan] and [machine_idle] only.

    Under an active recovery policy (and only then — they are registered
    lazily at their first use, so a policy that never triggers them
    leaves the snapshot untouched):

    - [engine.rereplications] (counter): data transfers completed;
    - [engine.transfer_aborts] (counter): transfers killed mid-copy by
      an endpoint crash;
    - [engine.transfer_time] (histogram): per-completed-transfer
      duration;
    - [engine.checkpoint_resumes] (counter): copies resumed from a
      checkpoint;
    - [engine.detection_lag] (histogram): failure-to-knowledge delay per
      acknowledged failure.

    Registries accumulate across runs when reused; pass a fresh one per
    run for per-run numbers.

    {b Tracing}: {!run}, {!run_faulty} and {!run_stream} accept an
    optional [Usched_obs.Trace] sink. When one is passed, the engine
    writes one JSONL record per {!event} as it happens, in
    non-decreasing time order, with the layout {!event_json} documents.
    Simultaneous records come out in the event order below (time,
    machine, class, insertion): a machine's [completed] record is
    followed by that machine's next [started] before another machine's
    [completed] at the same instant, so a {!run} writes exactly the
    bytes of {!run_faulty} on the empty trace. Like metrics, tracing is
    write-only: results are bit-for-bit identical with or without a
    sink. *)

module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Metrics = Usched_obs.Metrics
module Sink = Usched_obs.Trace

type event =
  | Arrived of { time : float; task : int }
      (** The task entered the system (streaming runs only — batch runs
          behave as if every task arrived at t = 0 and emit no arrival
          events). *)
  | Started of { time : float; machine : int; task : int }
  | Completed of { time : float; machine : int; task : int }
  | Killed of { time : float; machine : int; task : int }
      (** A running copy died with its machine (crash or outage); the work
          is lost, the task returns to the pool. *)
  | Cancelled of { time : float; machine : int; task : int }
      (** A speculative duplicate lost the race: another copy of the task
          finished first and this one was aborted. *)
  | Machine_crashed of { time : float; machine : int }
  | Machine_down of { time : float; machine : int; until : float }
  | Machine_up of { time : float; machine : int }
  | Machine_slowed of { time : float; machine : int; factor : float }
  | Failure_detected of { time : float; machine : int }
      (** The scheduler learned of the machine's failure — the detector
          fired, or the machine truthfully reported an outage on rejoin.
          Only emitted under a recovery policy with a detection latency,
          and only for failures the scheduler must react to. *)
  | Rereplication_started of { time : float; task : int; src : int; dst : int }
      (** The healer began copying the task's data from holder [src] to
          [dst] (recovery policies with [rereplication_target > 0]). *)
  | Rereplication_completed of {
      time : float;
      task : int;
      src : int;
      dst : int;
    }  (** [dst] now holds the task's data: its eligibility set grew. *)
  | Rereplication_aborted of { time : float; task : int; src : int; dst : int }
      (** An endpoint crashed mid-transfer; the partial copy is useless. *)
  | Checkpoint_resumed of {
      time : float;
      machine : int;
      task : int;
      progress : float;
    }
      (** The machine restarted the task from its local checkpoint with
          [progress] actual-time units of work already banked (always
          follows a [Started] event at the same time). *)

exception Unschedulable of int list
(** Raised by {!run} when the listed tasks can never be scheduled.
    Impossible for well-formed inputs — a placement guarantees every task
    a non-empty machine set — so catching it means the inputs lied, not
    that data was lost. Genuine data loss only exists under failures and
    is {e reported}, never raised: {!run_faulty} returns the same task
    ids as [Stranded] fates in its {!outcome}. *)

val run :
  ?speeds:float array ->
  ?dispatch:Dispatch.spec ->
  ?metrics:Metrics.t ->
  ?sink:Sink.t ->
  Instance.t ->
  Realization.t ->
  placement:Bitset.t array ->
  order:int array ->
  Schedule.t
(** Simulate to completion: {!run_faulty} on the empty fault trace,
    returning the schedule. [speeds] (default all 1.0) gives each
    machine a speed: a task with actual processing requirement [p]
    occupies machine [i] for [p / speeds.(i)] — the uniform (related)
    machines extension. [dispatch] (default [Dispatch.List_priority])
    selects the rule an idle machine uses to pick among its eligible
    tasks; every policy is work-conserving, so {!Unschedulable} does not
    depend on the policy. Raises [Invalid_argument] when [placement] or
    [order] is malformed (wrong length, empty machine set, order not a
    permutation), when [speeds] has the wrong length or a non-positive
    entry, and {!Unschedulable} if some task can never be scheduled
    (impossible for well-formed inputs). *)

val run_traced :
  ?speeds:float array ->
  ?dispatch:Dispatch.spec ->
  ?metrics:Metrics.t ->
  Instance.t ->
  Realization.t ->
  placement:Bitset.t array ->
  order:int array ->
  Schedule.t * event list
(** Like {!run}, also returning the chronological event log: the records
    {!run} writes to a sink, read back as events. *)

(** {1 Fault injection} *)

type fate =
  | Finished of Schedule.entry
      (** The surviving copy's machine and start/finish times. *)
  | Stranded
      (** Every machine holding the task's data crashed before any copy
          could finish or transfer out — the data is gone and the task
          cannot complete. *)

type outcome = {
  fates : fate array;  (** Per task id. *)
  completed : int;  (** Number of [Finished] tasks. *)
  stranded : int list;  (** Ids of [Stranded] tasks, ascending. *)
  makespan : float;
      (** Effective makespan: latest finish among completed tasks (0.0 if
          nothing completed). When tasks are stranded this measures what
          the survivors achieved, not a full-workload makespan. *)
  wasted : float;
      (** Total machine-time consumed by copies that did not produce the
          task's result: work killed by crashes/outages plus speculative
          duplicates that lost their race. 0.0 on an empty trace. *)
  metrics : Metrics.snapshot;
      (** Snapshot of the run's metrics registry at the end of the run
          (see the module docstring for instrument names); empty when no
          [metrics] registry was passed. *)
}

val outcome_schedule : m:int -> outcome -> Schedule.t option
(** The outcome as a {!Schedule.t} over [m] machines when every task
    finished; [None] as soon as one task is stranded. *)

val run_faulty :
  ?speeds:float array ->
  ?speculation:float ->
  ?dispatch:Dispatch.spec ->
  ?recovery:Usched_faults.Recovery.t ->
  ?metrics:Metrics.t ->
  ?sink:Sink.t ->
  Instance.t ->
  Realization.t ->
  faults:Usched_faults.Trace.t ->
  placement:Bitset.t array ->
  order:int array ->
  outcome
(** {!run} under a failure trace. Semantics:

    - {b Crash} at [t]: the machine is removed forever. Its in-flight
      copy (if any) is killed — the work done so far is lost, counted in
      [wasted], and the task returns to the pool for re-dispatch to a
      surviving holder of its data. The machine leaves every task's
      eligibility set (its disk is gone); a task whose last replica
      holder crashes before some copy finishes becomes [Stranded] —
      reported, never raised.
    - {b Outage} over [[t, until)]: like a crash at [t] (in-flight work
      is lost, unless checkpointed — see below) except the disk
      survives: the machine keeps its data, accepts no work during the
      interval, and rejoins at [until].
    - {b Slowdown} by [f] at [t]: from [t] on the machine processes work
      at [f] times its configured speed; the completion of an in-flight
      copy is re-predicted from its remaining work.
    - {b Speculation} ([speculation = Some beta], off by default): when a
      copy of task [j] started on machine [i] has been running longer
      than [beta * est(j) / speeds.(i)] — estimates, not actuals: the
      scheduler is semi-clairvoyant — an idle surviving holder of [j]'s
      data may start a backup copy (at most one duplicate; the copy is
      restarted from scratch). The first copy to finish wins; the other
      is aborted and its machine-time counted in [wasted].
    - {b Dispatch} ([dispatch], default [Dispatch.List_priority]): the
      rule an idle machine uses to pick among eligible tasks, including
      re-dispatch after kills and picks among re-replicated data.
      Policies see only scheduler-visible state (never actuals); the
      checkpoint-resume preference and speculation remain engine
      mechanisms, applied identically under every policy.
    - {b Recovery} ([recovery], default {!Usched_faults.Recovery.none}):
      the scheduler heals instead of merely reacting — see
      [Usched_faults.Recovery] for the three mechanisms (failure
      detection with latency, online re-replication that grows
      eligibility sets mid-run, checkpoint/resume across outages).
      Each mechanism is
      gated by its own parameter, so the default [none] policy (and any
      structurally equal one) takes none of their branches: same float
      operations, same events, same metrics as the engine without
      recovery — bit-for-bit.

    Determinism: simultaneous events are ordered by time, then machine
    id, then class (fault events and failure detections before
    completions and data-transfer arrivals, before dispatch decisions),
    then insertion order — so a crash kills a task finishing at exactly
    the same instant on the same machine. {!run} is this function on the
    empty trace without speculation or recovery: the same schedule, and
    a sink receives the same bytes.

    Raises [Invalid_argument] on malformed inputs, when the trace's
    machine count differs from the instance, or when [speculation] is
    not positive. *)

val run_faulty_traced :
  ?speeds:float array ->
  ?speculation:float ->
  ?dispatch:Dispatch.spec ->
  ?recovery:Usched_faults.Recovery.t ->
  ?metrics:Metrics.t ->
  Instance.t ->
  Realization.t ->
  faults:Usched_faults.Trace.t ->
  placement:Bitset.t array ->
  order:int array ->
  outcome * event list
(** Like {!run_faulty}, also returning the chronological event log
    (including kills, cancellations, machine state changes, and the
    recovery events: detections, re-replications, checkpoint resumes) —
    the records {!run_faulty} writes to a sink, read back as events. *)

(** {1 Open-system streaming service mode}

    The batch entry points above answer "how fast does this placement
    clear a fixed workload"; {!run_stream} answers "what response times
    does it sustain when tasks keep arriving". Task [j] becomes visible
    to the scheduler only at [arrivals.(j)]; until then it cannot be
    dispatched (its data placement exists from t = 0 — data is staged
    ahead, requests arrive online). Everything else composes unchanged:
    fault traces, recovery policies, dispatch policies, and speculation —
    which doubles as the replicate-on-straggler latency policy: an
    overdue copy gets a backup replica, the first finisher wins, the
    loser is cancelled and its machine-time credited to
    [outcome.wasted]. *)

type stream_outcome = {
  outcome : outcome;
      (** The underlying batch-style outcome. [makespan] is the drain
          time: the instant the last admitted task finished. *)
  latencies : float array;
      (** Per-finished-task response time [finish - arrival], in task-id
          (= admission) order; stranded tasks are absent. Feed this to
          [Usched_stats] for p50/p95/p99. *)
}

val run_stream :
  ?speeds:float array ->
  ?speculation:float ->
  ?dispatch:Dispatch.spec ->
  ?recovery:Usched_faults.Recovery.t ->
  ?metrics:Metrics.t ->
  ?faults:Usched_faults.Trace.t ->
  ?sink:Sink.t ->
  Instance.t ->
  Realization.t ->
  arrivals:float array ->
  placement:Bitset.t array ->
  order:int array ->
  stream_outcome
(** Simulate the open system until it drains: every admitted task
    completes or strands. [arrivals] gives task [j]'s arrival instant
    (one per task, finite, [>= 0], any order — generate with
    {!Arrival.generate}); [faults] defaults to the empty trace.

    Ordering contract: arrivals are events on the virtual source
    "machine" [-1] with class [Event_heap.cls_arrival], so at an equal
    instant every arrival strikes before any per-machine event. In
    particular a stream whose arrivals all land at t = 0 sees the whole
    workload before the first dispatch decision and reproduces the batch
    engine bit-for-bit.

    Streaming runs register two extra instruments (never present in
    batch snapshots): [engine.arrivals] (counter) and [engine.latency]
    (histogram of per-completion response times).

    Raises [Invalid_argument] on malformed inputs (see {!run_faulty})
    or when [arrivals] has the wrong length or a non-finite/negative
    entry. *)

(** {1 JSON serialization}

    The trace sink's view of a run ([usched solve --trace]): one JSONL
    object per event, plus a closing outcome record. *)

val event_json : event -> Usched_report.Json.t
(** The record a sink receives for the event, parsed:
    [{"type":"event","kind":"started","t":..,"machine":..,"task":..}] and
    friends. Every kind carries ["t"]; the copy events ([started],
    [completed], [killed], [cancelled]) add ["machine"] and ["task"];
    [machine_crashed], [machine_up] and [failure_detected] add
    ["machine"]; [machine_down] adds ["machine"] and ["until"] ([null]
    for a permanent outage), [machine_slowed] ["machine"] and
    ["factor"]; [arrived] adds ["task"]; the three [rereplication_*]
    kinds add ["task"], ["src"] and ["dst"]; [checkpoint_resumed] adds
    ["machine"], ["task"] and ["progress"]. [Json.output_line] of it
    prints the sink's bytes. *)

val outcome_json : outcome -> Usched_report.Json.t
(** [{"type":"outcome","completed":..,"stranded":[..],"makespan":..,
    "wasted":..,"metrics":{..}}]. *)
