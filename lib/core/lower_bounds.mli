(** Lower bounds on the optimal makespan [C*_max].

    The competitive ratios reported by the experiment harness divide a
    measured makespan by a bound on the clairvoyant optimum. Using a lower
    bound makes every reported ratio an {e upper} bound on the true ratio,
    so the paper's guarantees can be checked soundly even when the exact
    optimum is out of reach. *)

val average : m:int -> float array -> float
(** [Σp/m]: total work spread perfectly. *)

val largest : float array -> float
(** [max_j p_j]: the longest task must run somewhere. *)

val packing : m:int -> float array -> float
(** The counting bound: for every [k >= 1] with [n >= k·m + 1], some
    machine receives at least [k+1] of the [k·m + 1] largest tasks, so
    [C* >= ] the sum of the [k+1] smallest of them. Maximized over [k].
    Returns 0 when [n <= m]. *)

val best : m:int -> float array -> float
(** Max of all bounds above. Raises [Invalid_argument] if [m < 1] or a
    processing time is negative.

    Bit for bit [Float.max (average ~m p) (Float.max (largest p)
    (packing ~m p))], in O(n) time and O(min(2{^14}, n/8)) words when a
    histogram of the times certifies that {!packing} cannot exceed the
    other two: then no copy is sorted. Otherwise (and on a NaN or
    infinite time) it sorts a copy as {!packing} does, in
    O(n log n). *)

(**/**)

val packing_ceiling : m:int -> float array -> float
(* An upper bound on [packing ~m p] from the histogram [best] builds;
   [infinity] on a NaN or infinite time, or when [n·largest p] is too
   large to certify anything.
   Exposed so tests can check that it never falls below the bound it
   stands for. *)
