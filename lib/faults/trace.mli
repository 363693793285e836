(** Failure traces: the full fault history of one simulated run.

    A trace is a validated, chronologically sorted list of {!Fault.event}s
    against a fixed machine count. The empty trace makes
    [Engine.run_faulty] coincide exactly with [Engine.run]; random traces
    (driven by [Usched_prng]) turn every experiment into a fault-injection
    study. Generators draw per-machine, so a trace built from one seed is
    identical no matter which placement strategy later consumes it —
    comparisons across strategies are paired by construction. *)

type t

val empty : m:int -> t
(** No failures ever. Raises [Invalid_argument] if [m < 1]. *)

val of_events : m:int -> Fault.event list -> t
(** Validates every event (see {!Fault.check}) and sorts them by time,
    then machine id, then listing order. *)

val m : t -> int
val events : t -> Fault.event list
(** Chronological (time, then machine id) order. *)

val crashed : t -> int list
(** Machines with at least one [Crash] event, ascending. *)

(** {1 Random trace generators}

    All draw through [Usched_prng.Rng], so a single integer seed
    reproduces the full fault history. [horizon] is the time window in
    which failures begin (typically the no-fault makespan); it must be
    positive. [p] is the independent per-machine probability of
    suffering the event at all. *)

val random_crashes :
  Usched_prng.Rng.t -> m:int -> p:float -> horizon:float -> t
(** Each machine crashes with probability [p], at a time uniform in
    [(0, horizon)]. *)

val profile_crashes :
  Usched_prng.Rng.t ->
  profile:Usched_model.Failure.t -> horizon:float -> t
(** {!random_crashes} with a heterogeneous per-machine probability:
    machine [i] crashes with probability [Failure.p profile i], at a
    time uniform in [(0, horizon)]. Injected crash frequencies therefore
    match the profile the reliability solver plans against — the
    convergence property is pinned by a qcheck test. Draws two variates
    per machine unconditionally, like every generator here, so traces
    from equal seeds are paired across profiles. *)

val random_outages :
  Usched_prng.Rng.t ->
  m:int -> p:float -> horizon:float -> duration:float * float -> t
(** Each machine suffers with probability [p] one outage starting
    uniformly in [(0, horizon)] and lasting uniform-[duration] time. *)

val random_slowdowns :
  Usched_prng.Rng.t ->
  m:int -> p:float -> horizon:float -> factor:float * float -> t
(** Each machine changes speed with probability [p] from a time uniform
    in [(0, horizon)] to a factor uniform in [factor] — any finite range
    with [0 < lo <= hi]. Sub-unit ranges model classical stragglers;
    ranges above 1 model speed-ups. *)

val revelation : m:int -> at:float -> float array -> t
(** A mid-run speed revelation as a fault trace: at time [at], machine
    [i]'s speed is multiplied by [factors.(i)] (one [Fault.Slowdown]
    event per machine, relative to the engine's configured base speeds).
    Factors of exactly 1.0 are skipped — they are semantic no-ops, and
    omitting them keeps a degenerate revelation bit-identical to no
    revelation at all. Composes with every other trace via {!merge} and
    runs under [run_faulty]/[run_stream] with recovery and dispatch
    unchanged. Raises [Invalid_argument] when [factors] does not have
    length [m] or an entry is not finite and positive. *)
