(** Structured run tracing: a JSONL sink.

    One JSON object per line ([jq]-friendly), written through
    [Usched_report.Json]. Sinks create missing parent directories with
    {!Fs.mkdir_p} and are {e crash-safe}: records stream to a temp file
    ({!Fs.temp_path}) that is renamed over the target only at {!close},
    so an interrupted run never leaves a torn trace behind. Consumers:
    [usched solve --trace FILE] serializes engine events and metrics
    snapshots; the experiment runner writes per-run manifests. (Not to
    be confused with [Usched_faults.Trace], the failure history of a
    simulated run.) *)

type t

val create : path:string -> t
(** Open a temp file next to [path] for writing, creating parent
    directories. [path] itself is only touched at {!close}. *)

val emit : t -> Usched_report.Json.t -> unit
(** Append one record as a single line. Raises [Invalid_argument] on a
    closed sink. *)

val path : t -> string

val close : t -> unit
(** Flush, close, and atomically rename the temp file over the target;
    idempotent. *)

val with_file : path:string -> (t -> 'a) -> 'a
(** Bracketed {!create}/{!close}; if the callback raises, the temp file
    is deleted without publishing anything (the target keeps whatever it
    had before) and the exception re-raised. *)
