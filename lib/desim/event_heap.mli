(** Allocation-free 4-ary min-heap specialized to simulation events.

    Slots live in parallel struct-of-arrays lanes — an unboxed float
    lane for timestamps, int lanes for machine / class / sequence
    number plus two generic integer payload words, and one polymorphic
    lane for the payload proper. Push and pop allocate nothing once
    capacity is reached, and capacity is retained across drains.

    Ordering is the engine's total event order: [(time, machine, cls,
    seq)] with [seq] assigned uniquely per push, so the pop sequence is
    independent of heap arity and internal layout. *)

type 'a t = {
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
  mutable times : float array;
  mutable machines : int array;
  mutable classes : int array;
  mutable seqs : int array;
  mutable aux : int array;
  mutable aux2 : int array;
  mutable payloads : 'a array;
}
(** Exposed concretely so the engine's hot loop can write lanes of a
    freshly {!alloc}ed slot directly (avoiding boxed float arguments)
    and read the root's lanes: the root (the minimum) is slot 0 of every
    lane when [size > 0]. Treat as read-only outside that pattern;
    [size] elements of each lane are live, a heap-ordered prefix. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty heap. [dummy] fills vacated
    payload slots so popped payloads are not retained. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val alloc : 'a t -> int
(** Reserve the next free slot: bumps [size], assigns a fresh sequence
    number, resets the slot's [aux]/[aux2]/payload lanes. The caller
    must fill [times]/[machines]/[classes] (and optionally
    [aux]/[aux2]/[payloads]) of the returned slot and then call
    {!sift_up} on it. *)

val sift_up : 'a t -> int -> unit
(** Restore heap order after {!alloc} + direct lane writes. *)

val push : 'a t -> time:float -> machine:int -> cls:int -> 'a -> unit
(** [alloc] + lane writes + [sift_up] in one call (convenience path;
    boxes [time] when not inlined — hot loops use the {!alloc}
    pattern). *)

val push_aux :
  'a t -> time:float -> machine:int -> cls:int -> aux:int -> aux2:int -> 'a -> unit
(** {!push} that also sets the two integer payload words. *)

val remove_min : 'a t -> unit
(** Drop the root. The vacated payload slot is overwritten with [dummy];
    capacity is retained. Raises [Invalid_argument] on an empty heap. *)
