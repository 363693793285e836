(** Per-machine dynamic state of the fault-injected simulation,
    laid out struct-of-arrays.

    Each machine carries its liveness, outage clock, straggler speed
    factor, the copy it is processing, and the recovery bookkeeping
    (orphaned copies, pending failure detections, blink count for
    backoff, and the machine-local checkpoint store) — one unboxed
    int/float lane per field instead of a record per machine. The
    in-flight copy lives in the [cur_*] lanes with [cur_task.(i) = -1]
    meaning idle; the former option-typed recovery fields use sentinel
    values ([orphan = -1], [undetected = nan], [ckpt_task = -1]).

    The engine mutates the lanes directly — this module is a state
    container, not an abstraction boundary. Keeping the representation
    transparent (and off the minor heap: full-length lanes are
    major-heap allocations) is what lets the engine's hot loops run
    allocation-free. *)

module Bitset = Usched_model.Bitset

type t = {
  m : int;
  base : float array;  (** configured speed (1.0 when unspecified) *)
  alive : bool array;
  down_until : float array;  (** unavailable while [now < down_until] *)
  factor : float array;  (** straggler speed multiplier *)
  gen : int array;  (** invalidates queued completion events *)
  cur_task : int array;  (** task in flight; -1 = idle *)
  cur_started : float array;
  cur_remaining : float array;  (** actual-time units of work left *)
  cur_last : float array;  (** when [cur_remaining] was last synced *)
  cur_base : float array;
      (** actual-time units resumed from a checkpoint (0 without
          recovery) *)
  orphan : int array;
      (** copy killed by an undetected failure; -1 = none *)
  undetected : float array;
      (** earliest failure time awaiting detection; nan = none *)
  blinks : int array;  (** outages suffered so far, drives backoff *)
  trust_after : float array;  (** no dispatches before this time *)
  ckpt_task : int array;
      (** task preserved on local disk by its last checkpoint; -1 = none *)
  ckpt_work : float array;  (** work banked by that checkpoint *)
  alive_set : Bitset.t;
      (** machines that have not crashed (kept in sync by
          {!mark_crashed}) *)
}

val create : ?speeds:float array -> m:int -> unit -> t
(** All machines up, at their configured base speed (default 1.0),
    holding nothing. [speeds] is copied. *)

val mark_crashed : t -> int -> unit
(** Permanently removes the machine: clears [alive] and updates
    [alive_set]. *)
