(** Array-based binary min-heap.

    The event queue of the frozen pre-rewrite engine in
    [reference_engine.ml], and the exact priority queue the library's
    struct-of-arrays [Event_heap] is checked against. Generic over the
    element type with an explicit comparison, so deterministic
    tie-breaking (time, then machine id) is part of the comparison
    rather than ad hoc. *)

type 'a t

val create : compare:('a -> 'a -> int) -> unit -> 'a t
(** An empty heap ordered by [compare] (smallest element first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the smallest element. The vacated slot is cleared
    (spare slots only ever alias elements still in the heap, and a
    drained heap releases its storage), so popped payloads become
    garbage immediately — the queue never retains them for its own
    lifetime. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}; raises [Invalid_argument] on the empty heap. *)

val peek : 'a t -> 'a option

val of_array : compare:('a -> 'a -> int) -> 'a array -> 'a t
(** Heapify an array in O(n). *)

val drain : 'a t -> 'a list
(** Pop everything; returns elements in ascending order, emptying the
    heap. *)
