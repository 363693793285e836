(** Xoshiro256++ pseudo-random number generator.

    The general-purpose generator of Blackman & Vigna ("Scrambled linear
    pseudorandom number generators", 2019) with a 256-bit state and a
    period of [2^256 - 1]. This is the default generator behind {!Rng}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] seeds the 256-bit state from [seed] via SplitMix64, as
    recommended by the authors. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next : t -> int64
(** [next t] advances the state and returns 64 pseudo-random bits. *)

val next_bits : t -> int
(** [next_bits t] advances the state like {!next} and returns the top
    62 of its 64 bits as a non-negative [int], without boxing. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps, yielding a stream that will not
    overlap the original for any realistic computation. Used to derive
    parallel sub-streams. *)
