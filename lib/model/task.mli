(** Tasks (jobs) of the scheduling problem.

    A task carries the information the scheduler knows {e offline}: an
    estimated processing time [est] (written [p̃_j] in the paper) and a
    memory size [size] (written [s_j], used by the memory-aware model).
    The actual processing time is part of a {!Realization}, never of the
    task itself, mirroring the paper's information model.

    [t] is the row view of a task: an {!Instance} stores its tasks as
    flat columns, takes rows in [Instance.make] and hands fresh ones out
    in [Instance.tasks]. *)

type t = { id : int; est : float; size : float }

val make : id:int -> est:float -> ?size:float -> unit -> t
(** [make ~id ~est ~size ()] builds a task. [size] defaults to [1.0].
    Raises [Invalid_argument] if [id < 0], unless [est] is finite and
    [> 0], or unless [size] is finite and [>= 0]. *)

val id : t -> int
val est : t -> float
val size : t -> float
