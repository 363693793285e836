(** Fixed-capacity bit sets over [0 .. len-1].

    Machine sets [M_j] (the set of machines holding a replica of task [j])
    are the central combinatorial object of the paper; this compact
    representation makes placements with hundreds of machines cheap to
    store per task and fast to query in the phase-2 engine. *)

type t
(** A mutable set of integers in [[0, capacity t)]. *)

val create : int -> t
(** [create n] is the empty set with capacity [n] ([n >= 0]). *)

val full : int -> t
(** [full n] contains every element of [[0, n)]. *)

val singleton : int -> int -> t
(** [singleton n i] has capacity [n] and contains exactly [i]. *)

val of_list : int -> int list -> t
(** Set with capacity [n] containing the listed elements. *)

val capacity : t -> int
(** Capacity fixed at creation. *)

val copy : t -> t

val add : t -> int -> unit
(** Raises [Invalid_argument] when out of range. *)

val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Visit members in increasing order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val choose : t -> int
(** Smallest member. Raises [Not_found] on the empty set. *)

val next : t -> int -> int
(** [next t i] is the smallest member [>= i], or [-1] when there is
    none ([i >= 0]). A loop over integers with it visits the members in
    increasing order without [iter]'s closure. *)

val inter : t -> t -> t
(** Functional intersection of two sets of equal capacity. *)

val inter_is_empty : t -> t -> bool
(** [inter_is_empty a b = is_empty (inter a b)] without allocating the
    intermediate set. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b = cardinal (inter a b)] without allocating the
    intermediate set. *)

val subset : t -> t -> bool

val equal : t -> t -> bool
(** Same capacity and the same members. *)

val hash : t -> int
(** A non-negative hash of the capacity and the members, consistent
    with {!equal}; every member counts. *)
