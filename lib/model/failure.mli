(** Per-machine failure-probability profiles.

    The paper treats machines as reliable; the replication literature it
    cites (and ROADMAP item 5) asks the dual robustness question — how
    much to replicate so that data survives. A profile attaches to each
    machine [i] the probability [p i] that it fails (permanently loses
    its disk) during a run. Profiles are validated at construction:
    every probability must be a real number in [[0, 1]].

    Probabilities compose in log space ({!log_loss},
    {!prob_all_lost}) so that products over large replica sets neither
    underflow nor lose precision, and so the reliability solver can
    compare candidate sets by summing logs. *)

type t
(** An immutable profile over [m] machines. *)

val make : float array -> t
(** [make p] validates and copies [p]. Raises [Invalid_argument] when
    the array is empty or any entry is NaN or outside [[0, 1]]. *)

val uniform : m:int -> p:float -> t
(** All [m] machines fail independently with probability [p]. *)

val default_p : float
(** The conventional per-machine failure probability ([0.05]) assumed
    when an instance carries no profile — documented wherever it is
    used so results remain interpretable. *)

val m : t -> int
(** Number of machines. *)

val p : t -> int -> float
(** [p t i] is machine [i]'s failure probability. *)

val log_loss : t -> int -> float
(** [log_loss t i] is [log (p t i)]: [neg_infinity] when the machine
    never fails, [0.] when it always does. *)

val prob_all_lost : t -> Bitset.t -> float
(** [prob_all_lost t set] is the probability that {e every} machine in
    [set] fails, assuming independence: [exp (sum of log_loss)]. An
    empty set has lost all of its (zero) members with certainty, so the
    result is [1.] — an empty replica set never protects anything. *)

val to_string : t -> string
(** Comma-separated probabilities, round-trip precise ([%.17g]) —
    the wire form used by the [failp=] instance-header field. *)

val of_spec : m:int -> string -> (t, string) result
(** The grammar of [--failp] and of the [failp=] header field, for
    [m >= 1] machines: [uniform:P] (every machine fails with
    probability [P]) or the {!to_string} form, which must list [m]
    probabilities. Numbers follow {!Spec_text}; errors end with the
    grammar. *)

val pp : Format.formatter -> t -> unit
