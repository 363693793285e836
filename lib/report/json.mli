(** Minimal JSON values, compact serialization, and JSONL output.

    No external dependencies: this backs the observability layer (run
    traces, experiment manifests, bench reports) with machine-readable
    output that `jq` and any JSON library can consume. Serialization is
    deterministic: object fields keep their construction order and floats
    render through a shortest-round-trip format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : float -> t
(** [Float f], except non-finite values (nan, infinities) become {!Null}
    — JSON has no encoding for them. *)

val to_string : t -> string
(** Compact (single-line, no spaces) rendering. Strings are escaped per
    RFC 8259: quote, backslash, and control characters below [0x20];
    other bytes pass through verbatim (UTF-8 assumed). *)

val add : Buffer.t -> t -> unit
(** Append the {!to_string} rendering to a buffer. [Float f] renders as
    the first of [%.12g] and [%.17g] that parses back to [f]
    ([Float_text.write_json_float]), or [null] when [f] is not
    finite. *)

val output_line : out_channel -> t -> unit
(** One JSONL record: the compact rendering followed by a newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (used by round-trip tests and trace
    consumers). Integers without fraction or exponent parse as [Int],
    everything else numeric as [Float]. [Error msg] carries a byte
    offset. *)

val of_string_exn : string -> t
(** {!of_string}, raising [Invalid_argument] on parse errors. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)
