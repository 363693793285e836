(** The strategy catalog: every phase-1 placement algorithm in the repo
    as a first-class, typed, parseable value.

    Phase-2 dispatch is a value ({!Usched_desim.Dispatch.spec}); this
    module does the same for phase 1. A {!t} is a {e spec} — a pure
    description of an algorithm and its parameters, printable to a
    stable grammar ([ls-group:4], [sabo:0.5]) and parseable back. The
    constructors accept any parameters; {!check} says what is out of
    domain, and {!build}, the only way to a {!Two_phase.t}, refuses it
    before phase 1 runs. The {!all} registry enumerates every family
    with a one-line doc, and {!default_portfolio} derives the
    scenario-selection portfolio from it.

    Information flow: a spec describes only estimate-driven phase-1
    behaviour (plus the fixed phase-2 rule of its family). Specs never
    carry realization data, so recording a spec string in a trace or
    manifest is enough to replay the placement decision by name. *)

type order = Lpt | Ls
(** Priority order of a family's list phase: estimate-descending ([Lpt])
    or submission / task-id ([Ls]). *)

type uniform_variant =
  | U_no_choice  (** ECT-LPT placement, pinned execution. *)
  | U_no_restriction  (** Replicate everywhere, online LPT with speeds. *)
  | U_group of int  (** Contiguous groups weighted by group speed. *)

type t =
  | No_replication of order
      (** [|M_j| = 1] (Section 5.1): all decisions in phase 1. *)
  | Full_replication of order
      (** [|M_j| = m] (Section 5.2): all freedom kept for phase 2. With
          [Lpt] the paper's LPT-No Restriction (Theorem 3:
          [min(1 + (m-1)/m · α²/2, 2 - 1/m)]-competitive), with [Ls]
          Graham's List Scheduling ([2 - 1/m] whatever the estimates). *)
  | Group of { order : order; k : int }
      (** [k] machine groups (Section 5.3), [|M_j| = m/k] when [k | m]. *)
  | Budgeted of int
      (** Every task's data on the [k] least-loaded machines (overlapping
          sets, the conclusion's cost model). *)
  | Proportional of float
      (** The largest [fraction] of tasks get budget [m], the rest 1. *)
  | Selective of int
      (** The [count] largest estimates replicated everywhere. *)
  | Sabo of float  (** SABO_Δ (Section 6.1): SBO split, no replication. *)
  | Abo of float
      (** ABO_Δ (Section 6.2): S2 pinned, S1 replicated everywhere. *)
  | Memory_budget of float
      (** Greedy replication under a hard per-machine memory budget. *)
  | Reliability of { target : float; budget : float option }
      (** Per-task smallest replica sets with
          [P(all replicas lost) <= (1 - target) / n] from the machine
          failure profile (so [P(no stranded task) >= target] by union
          bound); [budget], when given, additionally caps each machine's
          replica memory. See {!Reliability}. *)
  | Uniform of { variant : uniform_variant; speeds : float array }
      (** Related-machines extension; [speeds] must have length [m]. *)
  | Speed_robust of { k : int }
      (** Replicas hedged across [k] machine speed classes built from the
          instance's speed band (pessimistic in-band speed, fastest class
          first) — one replica per class. See {!Speed_robust}. *)
  | Zone_group of int
      (** One replica in each of the [k] cheapest zones from the task's
          home zone (clamped to the topology's zone count). See
          {!Zone_placement}. *)
  | Local_budget of float
      (** Cheapest replica zones while the per-task transfer cost stays
          within [budget * size_j]; home zone always covered. See
          {!Zone_placement}. *)

(** {1 Grammar} *)

val to_string : t -> string
(** Stable spec string: [lpt-no-choice], [ls-no-restriction],
    [ls-group:K], [lpt-group:K], [budgeted:K], [proportional:F],
    [selective:COUNT], [sabo:DELTA], [abo:DELTA], [memory:BUDGET],
    [reliability:TARGET] / [reliability:TARGET:budget:B],
    [uniform-lpt-no-choice:SPEEDS], [uniform-lpt-no-restriction:SPEEDS],
    [uniform-ls-group:K:SPEEDS] with SPEEDS comma-separated,
    [speedrobust:K], [zonegroup:K], and [localbudget:B]. Floats are
    printed so they parse back to the identical value —
    [of_string (to_string s) = Ok s] for every valid spec. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}. Also accepts the alias [group:K] for
    [ls-group:K], and the pseudo-spec [help], which always returns
    [Error] carrying the full grammar listing (so [--algo help] prints
    it). Parameters are numbers as [Usched_model.Spec_text] reads them.
    Unknown names, missing/extra parameters, malformed numbers and
    out-of-domain values (negative delta, [k = 0], reliability targets
    outside (0, 1), ...) are [Error] with a usage message; unknown names include
    the full grammar, plus a "did you mean" hint when a registry keyword
    is within edit distance 3. *)

val name : t -> string
(** The human-readable [Two_phase.name] this spec builds to (e.g.
    ["LS-Group(k=4)"]), without constructing the algorithm. *)

(** {1 Building} *)

val build : t -> m:int -> Two_phase.t
(** The algorithm for an [m]-machine instance: named {!name}, phase 1
    the family module's placement function ({!No_replication.placement},
    {!Group_replication.placement}, {!Sabo.placement}, ...), phase 2 one
    {!Two_phase.replay} in the family's priority order — LPT for most,
    submission order for the [ls-*] families and [uniform-ls-group],
    S2 then S1 for ABO, with the machine speeds for [uniform-*]. Raises
    [Invalid_argument] on whatever {!check} rejects, at build time, not
    deep inside phase 1. [test_strategy]'s catalog golden pins every
    family's placements and schedules. *)

val check : t -> m:int -> (unit, string) result
(** What {!build} rejects, as a result — for CLI-style callers: a
    parameter out of domain (non-positive [k], a [delta] or budget that
    is NaN, infinite, zero or negative, a fraction outside [0, 1], a
    negative count, a reliability target outside (0, 1), speeds that are
    not all finite and positive), a group or speed-class count above
    [m], or a speeds list whose length is not [m]. *)

(** {1 Registry} *)

type entry = {
  keyword : string;  (** grammar keyword, e.g. ["ls-group"] *)
  params : string;  (** parameter suffix for usage lines, e.g. [":K"] *)
  doc : string;  (** one-line description *)
  example : m:int -> t;  (** a representative spec (benches, smoke tests) *)
  portfolio : m:int -> t list;
      (** members this family contributes to {!default_portfolio} *)
}

val all : entry list
(** Every family, in presentation order: replication degree ascending
    (no-choice, groups, budgeted, selective, memory-aware, no
    restriction), then the related-machines extensions. *)

val grammar : string
(** Human-readable listing of every accepted spec form with its
    one-line doc — what [usched strategies] and parse errors print. *)

val default_portfolio : m:int -> t list
(** The scenario-selection portfolio, derived from the registry: each
    entry contributes its [portfolio ~m] members in registry order. For
    the paper's families this is no replication, LS-Group at every
    proper divisor k of [m], one budgeted overlap, and full
    replication — identical to the portfolio {!Scenarios} hardcoded
    before the catalog existed. *)
