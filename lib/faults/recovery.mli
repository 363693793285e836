(** Recovery policies: how the scheduler reacts to failures.

    PR 1 made failures executable but left the engine only {e passively}
    robust: killed work is re-dispatched to pre-placed replicas, and a
    task whose last replica holder dies is irrecoverably stranded. A
    recovery policy makes the engine {e heal} (the HDFS/MapReduce story
    from the paper's introduction, taken one step further):

    - {b failure detection}: a machine's crash or outage becomes known
      to the scheduler only after [detection_latency] simulated time
      units. Until then the victim's in-flight task is believed to still
      be running — its re-dispatch (and any re-replication triggered by
      the failure) waits for detection. Machines report their own state
      truthfully on rejoin, so an outage shorter than the latency is
      detected at rejoin time at the latest.
    - {b online re-replication}: whenever a task's live replica count
      drops below its target, its data is copied from a surviving holder
      to the least-loaded healthy machine, paying [size / bandwidth]
      time for the transfer ({!transfer_time} — path-dependent when the
      instance carries a topology, with cross-zone latency and the
      zone link's bandwidth capping the rate). Eligibility sets grow back mid-run; a task
      strands only when its last holder dies before any copy completes
      or transfers out. The target is a {!target}: either the same fixed
      count [Fixed r] for every task (the PR 3 behaviour, [Fixed 0] =
      off), or [Degree] — heal each task back toward the replication
      degree its phase-1 placement originally gave it, so
      variable-degree placements (the reliability solver's) keep their
      per-task protection levels instead of being flattened to one
      global [r].
    - {b checkpoint/resume}: with [checkpoint_interval = c > 0], a copy
      checkpoints every [c] units of {e processed work} to its machine's
      local disk. A copy killed by an outage resumes from the last
      checkpoint when the machine rejoins (crashes destroy the disk and
      the checkpoints with it).
    {!none} disables all three mechanisms. The engine gates each one on
    its own parameter (a positive latency, a re-replication target, a
    checkpoint interval), so under [none] it takes none of their
    branches and
    [Engine.run_faulty] with the default policy is bit-for-bit the
    engine without recovery. A policy built by [make ()] with all
    defaults is structurally equal and runs the same way; the golden
    qcheck property in [test_recovery] proves both produce identical
    schedules, events, outcomes, and metrics. *)

type target =
  | Fixed of int
      (** Heal every task back up to this many live replicas; [0] = off. *)
  | Degree
      (** Heal each task back up to its initial phase-1 replication
          degree (computed by the engine at run start). *)

type t = private {
  detection_latency : float;  (** Failure-to-knowledge lag, [>= 0]. *)
  rereplication_target : target;
      (** Per-task live-replica target; [Fixed 0] = off. *)
  bandwidth : float;
      (** Data units copied per time unit, [> 0]; [infinity] makes
          transfers instantaneous. *)
  checkpoint_interval : float;
      (** Units of processed work between checkpoints; [0] = off. *)
}

val none : t
(** No detection latency, no re-replication, no checkpointing: the
    engine's default, bit-for-bit identical to the pre-recovery fault
    engine. *)

val make :
  ?detection_latency:float ->
  ?rereplication_target:target ->
  ?bandwidth:float ->
  ?checkpoint_interval:float ->
  unit ->
  t
(** Validated constructor; every omitted field defaults to its {!none}
    value. Raises [Invalid_argument] when [detection_latency] or
    [checkpoint_interval] is negative, NaN, or infinite, when
    [bandwidth] is not [> 0] (NaN rejected; [infinity] allowed), or
    when a [Fixed] [rereplication_target] is negative. *)

val is_none : t -> bool
(** Physical equality with {!none}: true only for the shared constant,
    not for a structurally equal [make ()]. Callers use it to tell "no
    recovery asked for" from an explicit neutral policy; the engine
    does not look. *)

val is_active : t -> bool
(** [not (is_none t)]. *)

val heals : t -> bool
(** Whether re-replication is on at all: [Fixed r] with [r > 0], or
    [Degree]. *)

val target_to_string : target -> string
(** ["0"], ["2"], ... for [Fixed]; ["degree"]. *)

val target_of_string : string -> (target, string) result
(** Inverse of {!target_to_string} — a nonnegative count as
    [Usched_model.Spec_text] reads it, or the word ["degree"]
    (case-insensitive). The CLI [--recover] converter. *)

val transfer_time :
  ?topology:Usched_model.Topology.t -> t -> src:int -> dst:int -> size:float -> float
(** Time for a re-replication of [size] data units from machine [src]
    to machine [dst]. Without a topology (or within one zone) this is
    the scalar policy: [size / bandwidth] — bit-for-bit the arithmetic
    the engine used before topologies existed. Across zones the path's
    latency is added and the effective rate is
    [min bandwidth (path bandwidth)]: the copy is bounded by both the
    policy's re-replication pipeline and the inter-zone link. *)

val pp : Format.formatter -> t -> unit
(** Renders as [recovery(none)] or
    [recovery(detect=0.5, target=2, bw=4, ckpt=1)]. *)
