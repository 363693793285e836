(** Event timelines and machine utilization statistics.

    Post-processing of engine traces and schedules: a textual event log
    (one line per start/completion, chronological) and per-machine
    utilization figures (busy fraction, idle gaps, finish time). Used by
    examples and experiments to explain {e why} a schedule has the
    makespan it has — e.g. that a static placement strands machines idle
    while one machine grinds through inflated tasks. *)

type machine_stats = {
  machine : int;
  busy : float;  (** Total processing time executed. *)
  finish : float;  (** Completion of the machine's last task (0 if none). *)
  tasks : int;
  idle_before_finish : float;
      (** Idle time between 0 and [finish] (gaps while waiting). *)
}

val machine_stats : Schedule.t -> machine_stats array
(** Per-machine statistics, indexed by machine id. *)

val render_events : Engine.event list -> string
(** One line per event: [t=12.50 m3 start task 7]. *)

val render_stats : Schedule.t -> string
(** A small table of {!machine_stats} plus the aggregate utilization. *)
