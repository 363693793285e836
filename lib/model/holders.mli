(** A placement's holder sets, interned once: the distinct machine sets
    (a {!Set_table.t}) and each task's index into them, numbered by
    first occurrence over task ids exactly as {!Set_table.intern_all}
    numbers them.

    This is what phase 1 hands phase 2. [Core.Placement.sets] returns
    the placement's own value, every engine entry point takes one as
    [~placement], and the whole-placement scans and each replay read
    the table and the index in place, so a placement replayed many
    times is interned once, when it is built. Both are read-only: a
    replay that can grow a task's set (a landed re-replication) works
    on a {!copy}, so one value may be shared by any number of replays,
    on any number of domains. *)

type t = private {
  table : Set_table.t;  (** the distinct sets, in order of first occurrence *)
  index : int array;  (** task -> its set's index in [table] *)
}

val of_sets : Bitset.t array -> t
(** The per-task sets, interned ({!Set_table.intern_all}). The table
    keeps the first set of each class: no set may be mutated
    afterwards. *)

val of_labels : Bitset.t array -> int array -> t
(** [of_labels sets labels]: task [j] holds [sets.(labels.(j))] — a
    phase-1 assignment handed over as the index. The sets are interned
    in order of first use, so equal sets share an index and the
    numbering is {!of_sets}'s on the per-task sets, with no hashing per
    task. Takes ownership of [labels], renumbering it in place where a
    label differs from its index: the caller must not use it
    afterwards. Raises [Invalid_argument] on a label outside [sets]. *)

val n : t -> int
(** The number of tasks. *)

val set : t -> int -> Bitset.t
(** A task's set (shared, do not mutate). *)

val first_misplaced : m:int -> t -> int option
(** The first task, in id order, whose set is empty or has a capacity
    other than [m], checked once per distinct set. *)

val copy : t -> t
(** A fresh table and index with the same contents, for a replay that
    interns grown sets and moves tasks to them. *)
