(** Plain-text persistence of instances and realizations.

    Experiments can save generated workloads and adversarial realizations
    to CSV-like files and reload them later, so any single run is
    shareable and replayable. Format (header line included):

    {v
    # usched-instance m=<m> alpha=<alpha>[ failp=<p0>,...][ speedband=<b0>,...][ topology=<zones|bw|lat>]
    id,est,size
    0,9.5,1
    ...
    v}

    The optional [failp=] field carries the per-machine failure profile
    ({!Failure.t}), comma-separated with one probability per machine;
    the optional [speedband=] field carries the per-machine speed
    uncertainty band ({!Speed_band.t}) as comma-separated [lo:hi] pairs
    (a single value for a known speed); the optional [topology=] field
    carries the cluster topology ({!Topology.t}) in its space-free
    [ZONES|BWROWS|LATROWS] form. All three round-trip bit-exactly;
    files written before any of the fields existed parse to instances
    without them. Realizations append an [actual] column and reference
    the instance parameters in the header. *)

val instance_to_string : Instance.t -> string
val instance_of_string : string -> Instance.t
(** Blank and whitespace-only lines after the column line are skipped.
    Raises [Failure] on malformed input, with a message naming the
    physical line (blank lines count). *)

val save_instance : path:string -> Instance.t -> unit
val load_instance : path:string -> Instance.t

val realization_to_string : Realization.t -> string
val realization_of_string : string -> Realization.t
(** Rebuilds both the instance and its actual times; validates
    admissibility via [Realization.of_actuals]. *)

val save_realization : path:string -> Realization.t -> unit
val load_realization : path:string -> Realization.t
