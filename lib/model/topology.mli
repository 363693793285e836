(** Cluster topology: machines partitioned into zones with a symmetric
    zone-by-zone transfer-cost matrix.

    The paper treats replication as free and instantaneous; real
    clusters pay for every byte a replica crosses. A topology makes
    that cost a first-class model input: each machine belongs to one
    {e zone} (a rack, a datacenter, a cloud region), and moving [size]
    data units from zone [a] to zone [b] takes
    [latency(a,b) + size / bandwidth(a,b)] time units. Transfers {e
    within} a zone are free — the matrix diagonal is pinned to
    (infinite bandwidth, zero latency), so every path lookup has an
    intra-zone fast path and the single-zone {!uniform} topology is
    bit-for-bit the "transfers are free" model the engine, the
    placement algorithms, and the recovery layer assumed before
    topologies existed. That identity is the refactor's safety
    contract, pinned by the golden qcheck in [test_golden_engine].

    A task's data is born on its {e home} machine [j mod m] (the
    submitting client's local node); the placement layer charges
    [staging_time] from the home zone for every cross-zone replica, and
    the engine makes a machine's first copy of a task wait for exactly
    that staging time. *)

type t

val make :
  zone_of:int array ->
  bandwidth:float array array ->
  latency:float array array ->
  t
(** [make ~zone_of ~bandwidth ~latency] builds a topology for
    [Array.length zone_of] machines. [zone_of.(i)] is machine [i]'s
    zone; ids must be contiguous [0 .. zones-1] with every zone
    nonempty. Both matrices are [zones x zones] and symmetric;
    bandwidth entries must be [> 0] (NaN rejected, [infinity] allowed)
    with an all-[infinity] diagonal, latency entries finite and [>= 0]
    with an all-zero diagonal. Raises [Invalid_argument] otherwise.
    All arrays are copied. *)

val uniform : m:int -> t
(** The single-zone topology: every transfer is free. The neutral
    element of the whole refactor — attaching it to an instance changes
    nothing, bit-for-bit. *)

val zoned : ?latency:float -> m:int -> zones:int -> bandwidth:float -> unit -> t
(** [zones] contiguous balanced zones (machine [i] in zone
    [i*zones/m], the speed-class split), every cross-zone edge sharing
    one [bandwidth] ([> 0]) and one [latency] ([>= 0], default [0]).
    Raises [Invalid_argument] unless [1 <= zones <= m]. *)

val m : t -> int
(** Number of machines. *)

val zones : t -> int
(** Number of zones, [>= 1]. *)

val zone : t -> int -> int
(** [zone t i] is machine [i]'s zone. *)

val is_uniform : t -> bool
(** Exactly one zone: all transfers free. *)

val same_zone : t -> int -> int -> bool

val path_bandwidth : t -> src:int -> dst:int -> float
(** Bandwidth of the path between two {e machines} — [infinity] within
    a zone. *)

val path_latency : t -> src:int -> dst:int -> float
(** Latency of the path between two {e machines} — [0] within a
    zone. *)

val zone_cost : t -> src:int -> dst:int -> size:float -> float
(** Time to move [size] data units between two {e zones}:
    [0] when [src = dst], else [latency + size / bandwidth]. *)

val staging_time : t -> src:int -> dst:int -> size:float -> float
(** Time to move [size] data units between two {e machines}: [0]
    within a zone, else the zone path's [latency + size / bandwidth].
    This is the cost the placement layer charges per cross-zone replica
    and the delay the engine imposes before a machine's first copy of a
    task may start. *)

val staging_into :
  t -> src:int -> dst:int -> sizes:float array -> int -> float array -> unit
(** [staging_into t ~src ~dst ~sizes j cell] stores
    [staging_time t ~src ~dst ~size:sizes.(j)] in [cell.(0)], bit for
    bit, without boxing a float: what the engine charges per copy. *)

val to_string : t -> string
(** Serialized form [ZONES|BWROWS|LATROWS]: zone ids comma-separated,
    matrix rows colon-separated with comma-separated bit-exact entries
    ([infinity] renders as [inf]). Contains no spaces, so it embeds in
    the space-split [topology=] instance-header field. *)

val of_spec : m:int -> string -> (t, string) result
(** The grammar of [--topology] and of the [topology=] header field:
    [uniform], [zones:Z:BW[:LAT]] (Z balanced contiguous zones, one
    cross-zone bandwidth and latency), or the {!to_string} form,
    validated like {!make}. The machine count must be [m]. Numbers
    follow {!Spec_text}; errors end with the grammar. *)

val pp : Format.formatter -> t -> unit
