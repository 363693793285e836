(** The typed event loop at the bottom of the desim stack.

    A single priority queue of timestamped events, each addressed to a
    machine and carrying an arbitrary payload. The engine's whole
    determinism story lives in the event order here: simultaneous events
    fire ordered by machine id, then by {e class} (faults and failure
    detections strike before completions and data-transfer arrivals,
    completions before dispatch decisions, speculation audits last),
    then by insertion order. The engine pops by reading the heap's root
    lanes and calling [Event_heap.remove_min], and may push further
    events while the queue drains.

    Backed by {!Event_heap} — an allocation-free struct-of-arrays
    4-ary heap whose lane order implements the same total order. The
    concrete equality [type 'a t = 'a Event_heap.t] is exposed so the
    engine's hot loops can push and pop through direct lane access;
    everyone else should stay on this interface. *)

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

type 'a t = 'a Event_heap.t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills vacated payload slots so popped payloads are not
    retained after a drain. *)

val push : 'a t -> time:float -> machine:int -> cls:int -> 'a -> unit
(** Enqueue an event; insertion order within equal (time, machine, cls)
    is preserved (each push takes the next sequence number). *)

val push_aux :
  'a t -> time:float -> machine:int -> cls:int -> aux:int -> aux2:int -> 'a -> unit
(** {!push} that also sets the slot's two integer payload words (read
    back via the heap's [aux]/[aux2] lanes; {!push} zeroes them). *)

val length : 'a t -> int
(** Current queue depth (the engine's high-water gauge reads this). *)
