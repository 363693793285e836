module Bitset = Usched_model.Bitset

(* Struct-of-arrays machine state. The previous layout — one mutable
   record per machine plus a [copy option] chain — cost an allocation
   for every dispatch (the fresh copy record) and for every recovery
   transition ([Some task], [Some time], [(task, work)] pairs). Flat
   int/float lanes keep every per-machine field unboxed: the in-flight
   copy is the [cur_*] lanes (with [cur_task = -1] meaning idle), the
   recovery options become sentinel values ([orphan = -1],
   [undetected = nan], [ckpt_task = -1]).

   Lanes of length [m] land in the major heap for any non-toy instance,
   so mutating them never touches the minor allocator; the engine
   destructures them into locals at setup and indexes directly. *)

type t = {
  m : int;
  base : float array;  (* configured speed (1.0 when unspecified) *)
  alive : bool array;
  down_until : float array;  (* unavailable while [now < down_until] *)
  factor : float array;  (* straggler speed multiplier *)
  gen : int array;  (* invalidates queued completion events *)
  (* The in-flight copy, one lane per former [copy] field; task = -1
     means the machine holds nothing. *)
  cur_task : int array;
  cur_started : float array;
  cur_remaining : float array;  (* actual-time units of work left *)
  cur_last : float array;  (* when [cur_remaining] was last synced *)
  cur_base : float array;  (* actual-time units resumed from a checkpoint *)
  (* Recovery bookkeeping — initial values throughout under
     [Recovery.none]. *)
  orphan : int array;  (* killed, undetected copy's task; -1 = none *)
  undetected : float array;  (* earliest undetected failure; nan = none *)
  blinks : int array;  (* outages suffered so far, drives backoff *)
  trust_after : float array;  (* no dispatches before this time *)
  ckpt_task : int array;  (* checkpointed task on local disk; -1 = none *)
  ckpt_work : float array;  (* work banked by that checkpoint *)
  alive_set : Bitset.t;
}

let create ?speeds ~m () =
  {
    m;
    base = (match speeds with None -> Array.make m 1.0 | Some s -> Array.copy s);
    alive = Array.make m true;
    down_until = Array.make m 0.0;
    factor = Array.make m 1.0;
    gen = Array.make m 0;
    cur_task = Array.make m (-1);
    cur_started = Array.make m 0.0;
    cur_remaining = Array.make m 0.0;
    cur_last = Array.make m 0.0;
    cur_base = Array.make m 0.0;
    orphan = Array.make m (-1);
    undetected = Array.make m Float.nan;
    blinks = Array.make m 0;
    trust_after = Array.make m 0.0;
    ckpt_task = Array.make m (-1);
    ckpt_work = Array.make m 0.0;
    alive_set = Bitset.full m;
  }

let mark_crashed t i =
  t.alive.(i) <- false;
  Bitset.remove t.alive_set i
