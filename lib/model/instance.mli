(** A problem instance: tasks, machine count, uncertainty factor.

    This is the complete offline input of phase 1 (the paper's
    [p̃_j, m, α]). Task ids always equal their array index, which the rest
    of the system relies on. Tasks are stored as two flat float columns
    (estimates and sizes); {!Task.t} is the row view of {!make} and
    {!tasks}. *)

type t

val max_machines : int
(** The largest machine count an instance may have: [2^20]. Per-machine
    state is allocated up front, so a larger count is refused before
    anything is allocated, by {!make}, by the instance parser and by
    [usched gen]. *)

val make :
  ?failure:Failure.t ->
  ?speed_band:Speed_band.t ->
  ?topology:Topology.t ->
  m:int ->
  alpha:Uncertainty.alpha ->
  Task.t array ->
  t
(** Validates and builds an instance. Raises [Invalid_argument] if
    [m < 1] or [m > max_machines], task ids are not exactly [0 .. n-1] in order, or the
    optional failure profile / speed band / topology does not cover
    exactly [m] machines. The rows are copied into the columns. *)

val of_ests :
  ?failure:Failure.t ->
  ?speed_band:Speed_band.t ->
  ?topology:Topology.t ->
  m:int ->
  alpha:Uncertainty.alpha ->
  ?sizes:float array ->
  float array ->
  t
(** Convenience constructor from raw estimate values (and optional sizes;
    defaults to all-1). Ids are assigned in order. Both arrays are
    copied. Raises [Invalid_argument] with {!Task.make}'s message on the
    first estimate or size that {!Task.make} refuses (an estimate
    [<= 0] or infinite, a size negative or not finite). *)

val of_columns :
  ?failure:Failure.t ->
  ?speed_band:Speed_band.t ->
  ?topology:Topology.t ->
  m:int ->
  alpha:Uncertainty.alpha ->
  ests:float array ->
  sizes:float array ->
  unit ->
  t
(** {!of_ests} without the copies: the instance takes ownership of both
    arrays, which the caller must not mutate afterwards. This is how the
    instance parser hands over the columns it filled. Raises
    [Invalid_argument] on a length mismatch and as {!of_ests} does. *)

val n : t -> int
(** Number of tasks. *)

val m : t -> int
(** Number of machines. *)

val alpha : t -> Uncertainty.alpha
val alpha_value : t -> float
(** [alpha] as a float, for formulas. *)

val tasks : t -> Task.t array
(** The tasks as fresh {!Task.t} rows. *)

val est : t -> int -> float
val size : t -> int -> float

val ests : t -> float array
(** All estimates, indexed by task id: the instance's own column, not a
    copy. It is read-only: a caller that needs to write into it copies
    it first. *)

val sizes : t -> float array
(** All data sizes, indexed by task id: the instance's own column,
    read-only like {!ests}. *)

val failure : t -> Failure.t option
(** The per-machine failure profile attached to this instance, if any.
    Reliability-aware algorithms that need one unconditionally should
    use {!failure_or_default}. *)

val failure_or_default : t -> Failure.t
(** The attached profile, or the uniform [Failure.default_p] profile
    when the instance carries none. *)

val with_failure : t -> Failure.t option -> t
(** Same instance with the failure profile replaced (or removed).
    Raises [Invalid_argument] when the profile's machine count differs
    from [m]. *)

val speed_band : t -> Speed_band.t option
(** The per-machine speed uncertainty band attached to this instance,
    if any. Speed-robust algorithms that need one unconditionally
    should use {!speed_band_or_nominal}. *)

val speed_band_or_nominal : t -> Speed_band.t
(** The attached band, or the degenerate all-1 band (identical
    machines, no uncertainty) when the instance carries none. *)

val with_speed_band : t -> Speed_band.t option -> t
(** Same instance with the speed band replaced (or removed). Raises
    [Invalid_argument] when the band's machine count differs from
    [m]. *)

val topology : t -> Topology.t option
(** The cluster topology attached to this instance, if any. [None]
    means transfers are free — the pre-topology model. Zone-aware
    algorithms that need one unconditionally should use
    {!topology_or_uniform}. *)

val topology_or_uniform : t -> Topology.t
(** The attached topology, or the single-zone uniform topology (all
    transfers free) when the instance carries none. *)

val with_topology : t -> Topology.t option -> t
(** Same instance with the topology replaced (or removed). Raises
    [Invalid_argument] when the topology's machine count differs from
    [m]. *)

val total_size : t -> float
val max_size : t -> float

val lpt_order : t -> int array
(** Task ids sorted by decreasing estimate (ties by id) — the order used
    by every LPT-based algorithm of the paper. Sorted once per instance,
    on first use, and shared: every call returns the same array, which
    is read-only (a caller that needs to write into it copies it
    first). *)

val pp : Format.formatter -> t -> unit
