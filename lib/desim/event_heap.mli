(** The event queue at the bottom of the desim stack: an
    allocation-free 4-ary min-heap of timestamped events, each addressed
    to a machine and carrying a payload.

    Heap order lives in three position lanes — an unboxed float lane of
    times, an int lane of packed ranks (machine, class and sequence
    number) and an int lane of slot indices. What an event carries sits
    in slot lanes that never move: two generic integer payload words and
    one polymorphic lane for the payload proper. A sift moves a hole,
    three lanes wide; the payload lane is written only when a slot is
    allocated or freed. Push and pop allocate nothing once capacity is
    reached, and capacity is retained across drains.

    {b Ordering contract.} The engine's whole determinism story lives
    in the pop order: simultaneous events fire ordered by machine id,
    then by {e class} ({!cls_fault} before {!cls_arrival} before
    {!cls_decision} before {!cls_audit}), then by insertion order. That
    is the total order [(time, machine, cls, seq)] with [seq] assigned
    uniquely per push, so the pop sequence is independent of heap arity,
    internal layout and of when a consumed root leaves. Every
    determinism statement in the engine's documentation reduces to this
    order plus [Dispatch.redispatch_order].

    {b Popping.} {!next} hands out the root's slot and marks the root
    consumed; the caller reads the root's time at [times.(0)], its
    machine through {!root_machine} and the slot lanes at the slot. The
    first push after that replaces the root with one sift-down; if none
    comes, the next {!next} removes the root. *)

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
  mutable consumed : bool;
  mutable next_seq : int;
  mutable times : float array;
  mutable ranks : int array;
  mutable slots : int array;
  mutable aux : int array;
  mutable aux2 : int array;
  mutable payloads : 'a array;
}
(** Exposed concretely so the engine's hot loop can write the lanes of a
    freshly {!alloc}ed event directly (avoiding boxed float arguments)
    and read the root's. Treat as read-only outside that pattern.

    Position lanes ([times], [ranks], [slots]) are indexed by heap
    position: the first [size] positions are a heap-ordered prefix whose
    root is position 0 ([size] counts a consumed root). [ranks] packs
    [((machine + 1) lsl 41) lor (cls lsl 39) lor seq]; the positions
    from [size] on hold the free slots. Slot lanes ([aux], [aux2],
    [payloads]) are indexed by slot; a free slot's payload is
    [dummy]. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty heap. [dummy] fills freed payload
    slots so popped payloads are not retained. *)

val length : 'a t -> int
(** Current queue depth, a consumed root excluded (the engine's
    high-water gauge reads this). *)

val alloc : 'a t -> int
(** Reserve a free slot for the next event and return it, its
    [aux]/[aux2] zeroed and its payload [dummy]. The caller writes the
    event's time into [times.(size)], optionally the slot's [aux],
    [aux2] and [payloads], and then calls {!insert} with the slot;
    nothing else may touch the heap in between. *)

val insert : 'a t -> int -> machine:int -> cls:int -> unit
(** [insert t s ~machine ~cls] enqueues the event {!alloc} reserved as
    slot [s]: it replaces a consumed root, or else joins the heap.
    Insertion order within equal [(time, machine, cls)] is preserved.
    Raises [Invalid_argument] when [machine] is outside
    [\[-1, 2{^ 21} - 2\]], [cls] outside [\[0, 3\]], or the heap has
    already numbered [2{^ 39}] pushes. *)

val push : 'a t -> time:float -> machine:int -> cls:int -> 'a -> unit
(** Enqueue an event: {!alloc} + lane writes + {!insert} in one call
    (convenience path; boxes [time] when not inlined — hot loops use
    the {!alloc} pattern). *)

val push_aux :
  'a t -> time:float -> machine:int -> cls:int -> aux:int -> aux2:int -> 'a -> unit
(** {!push} that also sets the slot's two integer payload words ({!push}
    zeroes them). *)

val next : 'a t -> int
(** Remove a consumed root if there is one; then consume the new root
    and return its slot, or return [-1] when the heap is empty. The
    consumed root's time stays at [times.(0)] and its slot lanes keep
    their values until the next push or {!next}. *)

val root_machine : 'a t -> int
(** The machine of the root, consumed or not, of a non-empty heap. *)
