(** Structured run tracing: a JSONL sink.

    One JSON object per line ([jq]-friendly). Sinks create missing
    parent directories with {!Fs.mkdir_p} and are {e crash-safe}:
    records stream to a temp file ({!Fs.temp_path}) that is renamed over
    the target only at {!close}, so an interrupted run never leaves a
    torn trace behind. Consumers: [usched solve --trace FILE] streams
    engine events (see [Usched_desim.Engine]'s [?sink]) and metrics
    snapshots; the experiment runner writes per-run manifests. (Not to
    be confused with [Usched_faults.Trace], the failure history of a
    simulated run.)

    Two ways to write a record, both into one reused buffer that goes
    to the file in chunks of about 64 KiB:
    - {!emit} renders a [Usched_report.Json.t] tree — for the few meta,
      metrics, summary and outcome records of a run;
    - the record writers {!literal}, {!int}, {!float} and {!end_record}
      append a fixed-layout record piece by piece, with no tree in
      between — for the engine's per-event records. A record written
      this way renders exactly as {!emit} would render the same object,
      because {!float} is [Usched_report.Json]'s float rendering. *)

type t

val create : path:string -> t
(** Open a temp file next to [path] for writing, creating parent
    directories. [path] itself is only touched at {!close}. Raises
    [Failure], [Sys_error] or [Unix.Unix_error] when the directory or
    the temp file cannot be created. *)

val memory : unit -> t
(** A sink that keeps its records in memory (read them with
    {!contents}); {!close} publishes nothing. *)

val contents : t -> string
(** Everything a {!memory} sink holds. *)

val emit : t -> Usched_report.Json.t -> unit
(** Append one record as a single line. Raises [Invalid_argument] on a
    closed sink. *)

val literal : t -> string -> unit
(** Append text verbatim: a record's opening brace, keys with their
    quotes and colons, separators. The caller writes valid JSON. *)

val int : t -> int -> unit
(** Append an integer in decimal, as [string_of_int] does. *)

val float : t -> float -> unit
(** Append a float as [Usched_report.Json] renders it: the first of
    [%.12g] and [%.17g] that parses back, [null] when not finite. *)

val end_record : t -> unit
(** Terminate the record being written with a newline. Raises
    [Invalid_argument] on a closed sink. *)

val path : t -> string

val close : t -> unit
(** Flush, close, and atomically rename the temp file over the target;
    idempotent. *)

val use : t -> (t -> 'a) -> 'a
(** [use t f] runs [f t], then {!close}s [t]; if [f] raises, the temp
    file is deleted without publishing anything (the target keeps
    whatever it had before) and the exception re-raised. *)

val with_file : path:string -> (t -> 'a) -> 'a
(** [use (create ~path) f]. *)
