(** Chunked parallel iteration over OCaml 5 domains.

    Experiment sweeps (hundreds of independent instance × realization
    runs) are embarrassingly parallel; this module fans them out over
    domains with a simple static chunking, which is the right shape for
    uniform workloads on a laptop-scale machine. All work functions must
    be pure or operate on disjoint state — nothing here synchronizes
    user data.

    [domains = 1] degenerates to sequential execution with no domain
    spawned, so library code can use these unconditionally. *)

val recommended_domains : unit -> int
(** [max 1 (cpu cores - 1)], capped at 8 — unless the [USCHED_DOMAINS]
    environment variable holds a positive integer, which overrides both
    the count and the cap (so many-core machines aren't silently
    throttled). Experiment configs ([Runner.config.domains], the CLI's
    [--domains]) take this as their default and may override it again. *)

val parallel_init : domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~domains n f] is [Array.init n f] computed with up to
    [domains] domains. [f] runs on arbitrary domains in arbitrary order.
    Exceptions in [f] are re-raised (one representative). Raises
    [Invalid_argument] if [domains < 1] or [n < 0]. *)
