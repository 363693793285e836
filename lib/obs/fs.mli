(** Small filesystem helpers shared by every output path (CSV dirs,
    trace files, bench reports). *)

val mkdir_p : string -> unit
(** Create a directory and every missing ancestor, like [mkdir -p], with
    permissions [0o755] (before the umask).
    Tolerates concurrent creation ([EEXIST] from a racing process is
    success, not an error — no exists/mkdir TOCTOU window). Raises
    [Failure] when a path component exists but is not a directory. *)

val write_atomic : path:string -> string -> unit
(** Write [content] to [path] crash-safely: the bytes go to a temp file
    in the same directory (created with {!mkdir_p}) which is renamed
    over [path] only after a successful close. A reader never observes a
    torn or half-written file — it sees the old content or the new,
    nothing in between — and an interrupted writer leaves the target
    untouched. On error the temp file is removed and the exception
    re-raised. *)

val temp_path : string -> string
(** The temp-file name the atomic writers use for a target path
    ([<path>.tmp.<pid>]) — exposed so tests and cleanup sweeps can
    recognize leftovers from killed processes. *)
