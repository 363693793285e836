(** The event queue at the bottom of the desim stack: an
    allocation-free 4-ary min-heap of timestamped events, each addressed
    to a machine and carrying a payload.

    Slots live in parallel struct-of-arrays lanes — an unboxed float
    lane for timestamps, int lanes for machine / class / sequence
    number plus two generic integer payload words, and one polymorphic
    lane for the payload proper. Push and pop allocate nothing once
    capacity is reached, and capacity is retained across drains.

    {b Ordering contract.} The engine's whole determinism story lives
    in the pop order: simultaneous events fire ordered by machine id,
    then by {e class} ({!cls_fault} before {!cls_arrival} before
    {!cls_decision} before {!cls_audit}), then by insertion order. That
    is the total order [(time, machine, cls, seq)] with [seq] assigned
    uniquely per push, so the pop sequence is independent of heap arity
    and internal layout. Every determinism statement in the engine's
    documentation reduces to this order plus
    [Dispatch.redispatch_order]. The engine pops by reading the root's
    lanes and calling {!remove_min}, and may push further events while
    the queue drains. *)

(** {2 Event classes}

    Ranks for simultaneous events on one machine, smallest first. *)

val cls_fault : int
(** Faults, machine rejoins, failure detections. *)

val cls_arrival : int
(** Copy completions, data-transfer arrivals, and task arrivals in the
    streaming service mode (the latter addressed to the virtual source
    machine [-1], so they strike before every per-machine event of the
    same instant). *)

val cls_decision : int
(** Dispatch decisions (a machine looks for work). *)

val cls_audit : int
(** Speculation checks — run after every state change of the instant. *)

(** {2 The heap} *)

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

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty heap. [dummy] fills vacated
    payload slots so popped payloads are not retained. *)

val length : 'a t -> int
(** Current queue depth (the engine's high-water gauge reads this). *)

val is_empty : 'a t -> bool

val alloc : 'a t -> int
(** Reserve the next free slot: bumps [size], assigns a fresh sequence
    number, zeroes the slot's [aux]/[aux2] lanes; its payload is the
    heap's [dummy], as in every slot past the live prefix. The caller
    must fill [times]/[machines]/[classes] (and optionally
    [aux]/[aux2]/[payloads]) of the returned slot and then call
    {!sift_up} on it. *)

val sift_up : 'a t -> int -> unit
(** Restore heap order after {!alloc} + direct lane writes. *)

val push : 'a t -> time:float -> machine:int -> cls:int -> 'a -> unit
(** Enqueue an event: [alloc] + lane writes + [sift_up] in one call
    (convenience path; boxes [time] when not inlined — hot loops use
    the {!alloc} pattern). Insertion order within equal
    [(time, machine, cls)] is preserved. *)

val push_aux :
  'a t -> time:float -> machine:int -> cls:int -> aux:int -> aux2:int -> 'a -> unit
(** {!push} that also sets the slot's two integer payload words ({!push}
    zeroes them). *)

val remove_min : 'a t -> unit
(** Drop the root. The vacated payload slot is overwritten with [dummy];
    capacity is retained. Raises [Invalid_argument] on an empty heap. *)
