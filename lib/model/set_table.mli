(** Machine sets interned by content: each distinct set is stored once
    and named by its index, in order of first occurrence.

    A placement gives every task a set [M_j], and most placements share
    a few sets across many tasks. Interning turns the per-task sets into
    a table and each task's index into it ({!Holders.t}), built once in
    phase 1: what the placement summary, the phase-2 engine and the
    dispatch index work on, so their cost follows the number of
    distinct sets rather than the number of tasks. An interned set must
    never be mutated: the table keeps it, and every task of its group
    shares it. A replay that interns grown sets does so in a {!copy}. *)

type t

val create : unit -> t
(** An empty table. *)

val intern_all : Bitset.t array -> t * int array
(** [intern_all sets] is the table of the distinct members of [sets]
    (compared with {!Bitset.equal}) and, per index [j], the index of
    [sets.(j)]'s class in it. Each lookup tries the previous hit, the
    first few sets and the hashed slot by physical identity before
    comparing contents, and allocates nothing per element. *)

val intern : t -> Bitset.t -> int
(** The index of the set equal to the argument, adding the argument
    (which the table then owns) when there is none. *)

val count : t -> int
(** The number of distinct sets: indices run from 0 to [count t - 1]. *)

val get : t -> int -> Bitset.t
(** The set at an index that {!intern_all} or {!intern} returned. Read
    only. *)

val copy : t -> t
(** A table with the same sets under the same indices, which
    {!intern} may grow without touching the original (the sets
    themselves are shared). *)

val to_array : t -> Bitset.t array
(** The distinct sets, in order of first occurrence (a fresh array of
    the shared sets). *)

val members : t -> int array -> order:int array -> int array * int array
(** [members t group_of ~order] lists the indices [order] visits by the
    set [group_of] gives them: [(first, members)], where set [g]'s
    indices are [members.(first.(g))] to [members.(first.(g + 1) - 1)],
    in the order [order] visits them. [group_of] maps into [t], and
    [order] is a permutation of its indices. *)
