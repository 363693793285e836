(** Arrival processes for the open-system (streaming) service mode.

    A batch run answers "how fast does this placement clear a fixed
    workload"; a service answers "what response times does it sustain
    when tasks keep arriving". This module supplies the arrival side:
    validated stochastic processes (Poisson, Markov-modulated Poisson)
    and trace-driven arrival sequences, generated through
    [Usched_prng.Rng] so one integer seed reproduces the full arrival
    history — and so arrival sequences are paired across the strategies
    of a sweep, exactly like fault traces.

    Drain condition: a streaming run is bounded by task count
    ({!generate}); the engine then simulates until every admitted task
    is resolved. *)

type t =
  | Poisson of { rate : float }
      (** Memoryless arrivals: i.i.d. exponential inter-arrival times
          with mean [1/rate]. *)
  | Mmpp of { rates : float array; switch : float }
      (** Markov-modulated Poisson process: the process cycles through
          [rates] states (Poisson rate [rates.(s)] while in state [s],
          starting in state 0), holding each state for an exponential
          sojourn with mean [switch]. A state with rate 0 is a silence
          period — the canonical bursty-traffic model. *)
  | Trace of float array
      (** Explicit arrival instants, non-decreasing, starting at or
          after 0 — replay of a recorded workload. *)

val poisson : rate:float -> t
(** Raises [Invalid_argument] unless [rate] is finite and > 0. *)

val trace : float array -> t
(** Validates the instants (finite, >= 0, non-decreasing; the array is
    copied). Raises [Invalid_argument] otherwise. *)

val mean_rate : t -> float
(** Long-run arrivals per time unit: [rate] for Poisson, the average of
    [rates] for MMPP (states have equal mean sojourn), and count/span
    for a trace (0 for a degenerate span). Offered load against a
    service capacity [c] is [mean_rate t /. c]. *)

val generate : t -> Usched_prng.Rng.t -> count:int -> float array
(** The first [count] arrival instants, non-decreasing, starting from
    time 0. Deterministic given the generator state; [Trace] ignores the
    generator. Raises [Invalid_argument] if [count < 0] or a trace holds
    fewer than [count] instants. *)

val describe : t -> string
(** Human/trace-meta rendering: ["poisson:2.5"], ["mmpp:4,0:10"],
    ["trace:<5 arrivals>"]. *)

val of_string : string -> (t, string) result
(** CLI grammar, surfaced by [solve --arrival]:
    ["rate:L"] (alias ["poisson:L"]) — Poisson with rate [L];
    ["mmpp:R1,R2,...:S"] — MMPP over the comma-separated rates with mean
    sojourn [S]; ["trace:FILE"] — one arrival instant per line of
    [FILE] (blank lines and [#] comments skipped). Numbers follow
    [Usched_model.Spec_text]; every parameter is validated
    (non-positive rates, unsorted traces, unreadable files are errors),
    and the error names the field and ends with the grammar. *)

val grammar : string
(** One-line summary of the accepted specs, for usage strings. *)
