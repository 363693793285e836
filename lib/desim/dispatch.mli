(** First-class, pluggable dispatch policies for the phase-2 engine.

    Every online algorithm in the paper is {e eligibility-restricted
    list scheduling}: an idle machine consults a rule to pick which
    eligible task to start. The replication-scheduling literature shows
    this rule is the interesting knob (delay-optimal replica dispatch,
    data-locality-aware assignment); this module makes it a value the
    engine takes as a parameter instead of a hard-coded scan.

    A policy sees only the {e scheduler-visible} state ({!view}): the
    priority order, which tasks are in the pool, who currently holds
    each task's data (replica sets grow mid-run under re-replication),
    per-machine dispatched load and configured speeds, and machine
    availability. Policies never see actual processing times — the
    semi-clairvoyant model — and they never refuse available work: when
    some eligible task exists, {!select_machine} returns one ({e
    work-conservation}; the engine's completeness argument and the
    policy/fault reachability property in the tests rely on it).

    Policies are {b stateful per run}: {!make} instantiates fresh state
    (the set index's cursors and heaps, the random policy's seeded RNG),
    so a policy value must not be shared between concurrent runs. Identical
    inputs give identical decisions — every policy is deterministic,
    including [Random_tiebreak], whose randomness is a pure function of
    its seed.

    Every policy decides on one index of the tasks by holder set, and no
    selection allocates (but [Random_tiebreak]'s buffer grows to the
    largest tie): {!select_machine} returns a plain int ([-1] = no
    eligible task) and reads the simulation clock from the shared [now]
    cell instead of taking a (boxed) float argument. *)

module Bitset = Usched_model.Bitset
module Set_table = Usched_model.Set_table
module Topology = Usched_model.Topology

type spec =
  | List_priority
      (** The paper's default: the highest-priority eligible task. Each
          distinct holder set keeps its tasks in priority order behind a
          cursor, and each machine a heap of the sets holding it, so a
          decision costs O(log #sets holding the machine), not n. This
          is bit-for-bit the rule the pre-refactor engine hard-coded. *)
  | Least_loaded_holder
      (** The highest-priority eligible task for which this machine is a
          least-loaded available holder of the data; a machine defers
          tasks that a strictly less-loaded replica holder could take,
          falling back to plain priority order when nothing prefers it.
          Load is dispatched estimate-units, never actuals. A decision
          takes heap tops, setting each deferring set aside whole. *)
  | Earliest_estimated_completion
      (** The eligible task this machine finishes earliest by estimate:
          minimize [est(j) / speed(i)] (SPT restricted to held data);
          ties resolve to the priority order. A decision visits the
          machine's tasks from each set's head on: O(n) if all hold it. *)
  | Locality
      (** [Least_loaded_holder] with data movement priced in: each
          candidate holder's load is inflated by the staging time it
          would pay to pull the task's data across zones from its home
          machine [j mod m]. A machine defers a task whenever another
          available holder has a strictly smaller load-plus-staging
          total. Identical to [Least_loaded_holder], and as cheap, when
          the view carries no topology (or a single-zone one); with
          zones, a decision walks the machine's sets to their first task
          it need not defer. *)
  | Random_tiebreak of int
      (** [List_priority] with genuine priority ties — eligible tasks
          sharing the leading estimate — broken uniformly at random from
          the seeded generator. Coincides with [List_priority] when
          estimates are distinct; deterministic given the seed. A
          decision visits the machine's tasks from each set's head on,
          only the tied ones if the order is estimate-sorted. *)

val default : spec
(** [List_priority]. *)

val name : spec -> string
(** Stable CLI/trace name: ["list-priority"], ["least-loaded"],
    ["earliest-completion"], ["locality"], ["random:SEED"]. *)

val spec_of_string : string -> (spec, string) result
(** Inverse of {!name} (["random"] alone means seed 0; the seed is an
    integer as [Usched_model.Spec_text] reads it). The error message
    ends with the valid names — surfaced verbatim by the [--policy]
    cmdliner converter. *)

val known_names : string
(** Human-readable list of accepted names, for usage strings. *)

val builtin : spec list
(** One representative of every policy family (random seeded 0), in
    presentation order — what sweeps and benches iterate over. *)

(** The scheduler-visible state a policy decides from. The arrays are
    live views owned by the engine: [dispatchable.(j)] is whether task
    [j] is in the pool right now, [load.(i)] the estimate-units
    dispatched to machine [i] so far. [now] is the shared one-cell
    simulation clock — the engine stores the current time there before
    asking for a decision, and [available] reads it, so no float crosses
    a call boundary on the hot path.

    Holder sets are interned: [sets] holds each distinct set once, and
    the machines whose disk has task [j]'s data now are
    [Set_table.get sets group_of.(j)]. Interned sets are never mutated.
    When a re-replication lands, the engine interns the grown set (which
    may add a set to [sets]) and moves the task there by writing
    [group_of]; it calls {!notify_available} for the task before the
    task is next dispatchable. [first] and [members] list the tasks by
    the set they had at the start, in priority order
    ([Set_table.members sets group_of ~order] before any move). Every
    policy indexes the tasks by set with them, so no decision walks the
    whole priority order. *)
type view = {
  n : int;
  m : int;
  order : int array;  (** fixed task priority order *)
  pos_of : int array;  (** inverse permutation of [order] *)
  dispatchable : bool array;
  sets : Set_table.t;  (** the distinct holder sets *)
  group_of : int array;  (** task -> its holder set's index in [sets] *)
  first : int array;
      (** initial set -> start of its tasks in [members]; one entry more
          than the sets at the start *)
  members : int array;  (** tasks by initial set, in priority order *)
  est : float array;  (** per-task estimate *)
  speed : float array;  (** configured base speed (not slowdowns) *)
  load : float array;
  now : float array;  (** length-1 clock cell, engine-owned *)
  available : int -> bool;  (** at time [now.(0)] *)
  topology : Topology.t option;
      (** the instance's cluster topology, when it has one — what the
          [Locality] policy prices zone distance with *)
  size : float array;
      (** per-task data size; may be [[||]] when [topology] is [None]
          (no policy reads it then) *)
}

type t

val make : spec -> view -> t
(** Instantiate the policy with fresh per-run state over the given
    view. Raises [Invalid_argument] when
    [order]/[pos_of]/[group_of]/[members]/[est]/[speed] disagree with
    [n]/[m], [first] is empty, [now] is not length 1, or a topology is
    present but [size] does not cover every task. *)

val select_machine : t -> machine:int -> int
(** The task idle machine [machine] should start now, or [-1] when it
    holds no eligible task. Work-conserving: [-1] implies no dispatchable
    task has [machine] among its holders. The caller must have stored
    the current time in the view's [now] cell. *)

val notify_available : t -> task:int -> unit
(** The task (re-)entered the pool or grew its holder set — a kill
    returned it, a streaming arrival, or a re-replication landed.
    Every policy reconsiders it the same way: it rewinds the cursor of
    the task's set (and lowers that set's key on its machines' candidate
    heaps), or, for a task moved to another set, pushes it on its
    holders' heaps. *)

val redispatch_order : t -> int -> int -> int * int
(** The order in which the two machines a speculative race frees at the
    same instant look for new work: increasing machine id. This is the
    single home of the documented re-dispatch determinism contract. *)
