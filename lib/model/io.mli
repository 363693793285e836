(** Plain-text persistence of instances.

    Generated workloads can be saved to CSV-like files and reloaded
    later, so any single run is shareable and replayable. Format (header
    line included):

    {v
    # usched-instance m=<m> alpha=<alpha>[ failp=<p0>,...][ speedband=<b0>,...][ topology=<zones|bw|lat>]
    id,est,size
    0,9.5,1
    ...
    v}

    [m] is a positive integer no larger than {!Instance.max_machines}
    and [alpha] a finite factor [>= 1]. The
    optional [failp=] field carries the per-machine failure profile
    ({!Failure.t}), comma-separated with one probability per machine;
    the optional [speedband=] field carries the per-machine speed
    uncertainty band ({!Speed_band.t}) as comma-separated [lo:hi] pairs
    (a single value for a known speed); the optional [topology=] field
    carries the cluster topology ({!Topology.t}) in its space-free
    [ZONES|BWROWS|LATROWS] form. All three round-trip bit-exactly;
    files written before any of the fields existed parse to instances
    without them. Rows list the tasks in id order [0, 1, ...]. *)

val instance_to_string : Instance.t -> string

val instance_of_string : string -> Instance.t
(** Blank and whitespace-only lines after the column line are skipped.
    Raises [Failure] on malformed input, with a message
    ["Io: line <k>: ..."] naming the physical line (blank lines count);
    header problems, including optional fields whose machine count is
    not [m], name line 1. *)

val save_instance : path:string -> Instance.t -> unit

val load_instance : path:string -> Instance.t
(** {!instance_of_string} on the file's contents, without holding them:
    the file is read twice through one 64 KB buffer, once to count its
    lines (which sizes the columns) and once to parse it with the same
    parser, line by line, so the instance's two columns are the only
    allocation that grows with the file. The buffer grows only to the
    longest line. Same result, messages and line numbers as
    {!instance_of_string}; raises [Sys_error] when the file cannot be
    read. *)

(**/**)

val count_newlines : string -> int
(* The number of '\n' bytes in the string, counted eight bytes at a
   time; exposed so tests can compare it with a byte loop. *)

val load_instance_with : buffer:int -> path:string -> Instance.t
(* [load_instance] with a buffer of [buffer] bytes (at least 1) to
   start from; exposed so tests can make rows and the header straddle
   every refill of a small file. *)
