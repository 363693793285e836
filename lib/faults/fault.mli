(** Machine failure models.

    The paper motivates replication with Hadoop-style fault tolerance:
    replicas exist so that work can continue when hardware dies mid-run.
    This module gives that motivation an executable form — the failure
    events a fault-injectable phase-2 engine consumes (see
    [Usched_desim.Engine.run_faulty]).

    Three models, all anchored at a wall-clock time of the simulation:

    - {b permanent crash}: the machine stops forever at [time]; its
      in-flight work is lost and so is its locally stored data (the
      HDFS "lost disk" event — eligibility sets shrink);
    - {b transient outage}: the machine is unavailable on
      [[time, until)]; in-flight work is lost (unless a {!Recovery}
      policy checkpoints it) but the data on disk survives, so the
      machine rejoins at [until];
    - {b speed change}: from [time] on, the machine runs at [factor]
      times its configured speed — a [factor < 1] is the MapReduce
      straggler that speculation exists to beat, a [factor > 1] a
      speed-up (an in-band speed revelation can go either way, see
      [Usched_model.Speed_band]). *)

type kind =
  | Crash  (** Permanent: machine and its stored data are gone. *)
  | Outage of float
      (** [Outage until]: unavailable on [[time, until)], data survives. *)
  | Slowdown of float
      (** [Slowdown factor]: speed multiplied by [factor] (any finite
          positive value; [> 1] speeds the machine up) from [time] on; a
          later slowdown replaces the factor. *)

type event = { machine : int; time : float; kind : kind }

val check : m:int -> event -> unit
(** Raises [Invalid_argument] unless [machine] is in [[0, m)], [time] is
    finite and non-negative, outages end strictly after they start, and
    speed factors are finite and strictly positive. The message names
    the offending event, rendered as [crash(m2 @ 3.5)],
    [outage(m0 @ 1 until 4)] or [slowdown(m1 @ 2 x0.5)] ([speedup(...)]
    when the factor exceeds 1). *)
