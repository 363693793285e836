(** SplitMix64 pseudo-random number generator.

    A small, fast, high-quality 64-bit generator (Steele, Lea & Flood,
    "Fast splittable pseudorandom number generators", OOPSLA 2014). It
    seeds {!Xoshiro256}.
    The implementation is self-contained so that every experiment in this
    repository is reproducible bit-for-bit across OCaml releases. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Any seed is acceptable,
    including [0L]. *)

val next : t -> int64
(** [next t] advances the state and returns 64 pseudo-random bits. *)
