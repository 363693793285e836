(** Allocation-free in-place sorting of float arrays.

    The phase-1 algorithms sort task weights on every call; the generic
    [Array.sort] comparator boxes two floats per comparison. This
    specialized introsort compares unboxed array reads and allocates
    nothing, at the same O(n log n) worst-case cost. *)

val descending : float array -> unit
(** Sort in place into non-increasing order under [Float.compare]'s
    total order (NaNs last). Observationally identical to
    [Array.sort (fun a b -> Float.compare b a)]. *)

(**/**)

val introsort : float array -> int -> int -> int -> unit
(* [introsort a lo hi depth] sorts [a.(lo) .. a.(hi)] as {!descending}
   does, heapsorting any range still being split once [depth] levels
   are used up. Exposed so tests can pass [depth = 0] and reach that
   fallback, which well-split inputs never do. *)
