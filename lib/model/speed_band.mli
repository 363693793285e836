(** Per-machine speed uncertainty bands — the speed-robust dual of the
    paper's processing-time uncertainty.

    The paper's model reveals {e task} actuals within
    [[p̃/alpha, alpha·p̃]] after placement; Eberle et al. ("Speed-Robust
    Scheduling — Sand, Bricks, and Rocks") study the dual in which the
    {e machines} are uncertain: placement commits first, then every
    machine's speed is revealed inside a known band [[lo_i, hi_i]]. A
    {!t} carries one band per machine and is attached to an instance
    (see [Instance.speed_band]); revelation is either stochastic
    ({!sample}, drawn through [Usched_prng] so draws pair across
    strategies) or adversarial ([Usched_core.Speed_adversary]).

    A band with [lo_i = hi_i] for every machine is {e degenerate}: there
    is no uncertainty and every consumer must reduce exactly to the
    fixed-speeds engine (pinned bit-for-bit by the golden test). *)

type t

val make : (float * float) array -> t
(** One [(lo, hi)] band per machine. Raises [Invalid_argument] when the
    array is empty or any bound is NaN, non-finite, [<= 0], or has
    [lo > hi]. The array is copied. *)

val uniform : m:int -> lo:float -> hi:float -> t
(** The same band on all [m] machines. *)

val nominal : m:int -> t
(** Known unit speeds, zero uncertainty ([lo_i = hi_i = 1]): the
    identical-machines default. *)

val tiered : m:int -> t
(** The heterogeneous-cluster shape used by the [hetero] experiment:
    the first [m/4] machines run at speed 2, the last [m/4] at 0.5, the
    middle half at 1 — all degenerate (known speeds). [tiered ~m:8] is
    exactly the [[|2;2;1;1;1;1;0.5;0.5|]] array the experiment used to
    hardcode. *)

val widen : t -> spread:float -> t
(** Uncertainty around known speeds: each band becomes
    [[lo/spread, hi*spread]]. [spread >= 1] required. *)

val m : t -> int
val lo : t -> int -> float
val hi : t -> int -> float

val los : t -> float array
(** Fresh array of the pessimistic (slowest in-band) speeds. *)

val his : t -> float array
(** Fresh array of the optimistic (fastest in-band) speeds. *)

val mids : t -> float array
(** Fresh array of the band midpoints — the nominal planning speeds. *)

val is_degenerate : t -> bool
(** [lo_i = hi_i] on every machine: no uncertainty at all. *)

val contains : t -> float array -> bool
(** Every [speeds.(i)] lies in [[lo_i, hi_i]] (length must match). *)

val sample : t -> Usched_prng.Rng.t -> float array
(** One in-band revelation: machine [i]'s speed uniform in
    [[lo_i, hi_i]]. Draws one variate per machine {e unconditionally}
    (degenerate machines included, where the draw is discarded and the
    exact bound returned), so equal seeds give paired revelations across
    bands of the same [m] — the same discipline as the fault-trace
    generators. *)

val to_string : t -> string
(** Comma-separated [LO:HI] pairs (a degenerate machine prints as the
    single speed), printed so parsing returns the bit-identical band —
    the instance-header wire format ([speedband=]). *)

val of_spec : m:int -> string -> (t, string) result
(** The grammar of [--speed-band] and of the [speedband=] header field:
    [uniform:LO:HI] (the same band on every machine) or the
    {!to_string} form, [m] comma-separated [LO:HI] / [S] entries ([S]
    meaning [S:S]). Numbers follow {!Spec_text}; errors end with the
    grammar. *)

val pp : Format.formatter -> t -> unit
