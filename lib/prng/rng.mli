(** Unified random-source interface used throughout the repository.

    All randomness in workload generation, uncertainty realization, and
    experiment driving flows through a {!t}, so a single integer seed makes
    any experiment reproducible. The generator is {!Xoshiro256}. *)

type t
(** A mutable stream of pseudo-random values. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from an integer seed
    (default [0x5EED]). *)

val split : t -> t
(** [split t] derives an independent child stream and advances [t]; the
    child and parent streams do not overlap. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [[lo, hi)]. Raises [Invalid_argument] if [lo > hi]. *)

val fill_range : t -> float array -> lo:float -> hi:float -> unit
(** [fill_range t a ~lo ~hi] overwrites [a.(0)], [a.(1)], ... in order
    with {!float_range} draws: the same values from the same stream,
    without allocating. Raises [Invalid_argument] if [lo > hi]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. Uses rejection sampling, so it is exactly uniform. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)
