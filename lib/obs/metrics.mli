(** Lightweight metrics: counters, gauges, timers, histograms.

    A registry is either {e live} or {e disabled}. Handles obtained from
    a disabled registry are shared no-op dummies, so instrumented hot
    paths cost one predictable branch when observability is off — the
    engine's outputs are bit-for-bit identical either way (metrics never
    influence control flow or float arithmetic of the instrumented code).

    Handles are get-or-create by name, so repeated [counter t "x"] calls
    return the same accumulator. Names are conventionally dotted
    ([engine.dispatches], [runner.csv_write]). Registries are
    single-domain: do not mutate one handle from multiple domains. *)

type t
(** A registry of named instruments. *)

val create : unit -> t
(** A fresh live registry. *)

val disabled : t
(** The shared no-op registry: every handle it hands out ignores all
    updates, and {!snapshot} is always empty. *)

val is_enabled : t -> bool

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
(** Monotone integer count. Raises [Invalid_argument] when [name] is
    already registered with a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : t -> string -> gauge
(** Last-write-wins float level. *)

val set : gauge -> float -> unit

val record_max : gauge -> float -> unit
(** Keep the running maximum (first observation wins an empty gauge). *)

type timer

val timer : t -> string -> timer
(** Accumulated wall-clock spans. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall-clock duration as one span. The span
    is recorded even when the thunk raises. *)

type histogram

val histogram : t -> string -> histogram
(** Streaming distribution summary (count, sum, min, max). *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Timer of { total_s : float; spans : int }
  | Histogram of { count : int; sum : float; min : float; max : float }

type snapshot = (string * value) list
(** Instrument name to value, sorted by name. *)

val snapshot : t -> snapshot
(** Point-in-time copy; empty for {!disabled}. *)

val find : snapshot -> string -> value option

val to_json : snapshot -> Usched_report.Json.t
(** One object, field per instrument: counters as integers, gauges as
    numbers, timers as [{"total_s":..,"spans":..}], histograms as
    [{"count":..,"sum":..,"min":..,"max":..,"mean":..}]. *)

val now_s : unit -> float
(** Wall clock in seconds ([Unix.gettimeofday]), for callers measuring
    spans themselves. *)
