(** ASCII Gantt charts of schedules.

    Regenerates the paper's schedule illustrations (Figures 1, 2, 4 and 5)
    as terminal art: one row per machine, tasks drawn to horizontal scale
    and labelled with the last digit of their id. *)

val render : ?width:int -> Schedule.t -> string
(** [render schedule] draws the schedule scaled into [width] columns
    (default 72), each task filled with the last digit of its id.
    Zero-duration schedules render as empty tracks. *)

val render_two :
  ?width:int -> left_title:string -> right_title:string ->
  Schedule.t -> Schedule.t -> string
(** Side-by-side rendering on a shared time scale — the format of the
    paper's "online vs offline optimal" and "phase 1 vs phase 2"
    figures. *)
