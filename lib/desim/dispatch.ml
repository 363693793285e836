module Bitset = Usched_model.Bitset
module Topology = Usched_model.Topology
module Rng = Usched_prng.Rng
module Spec_text = Usched_model.Spec_text

type spec =
  | List_priority
  | Least_loaded_holder
  | Earliest_estimated_completion
  | Locality
  | Random_tiebreak of int

let default = List_priority

let name = function
  | List_priority -> "list-priority"
  | Least_loaded_holder -> "least-loaded"
  | Earliest_estimated_completion -> "earliest-completion"
  | Locality -> "locality"
  | Random_tiebreak seed -> Printf.sprintf "random:%d" seed

let known_names =
  "list-priority | least-loaded | earliest-completion | locality | random:SEED"

let spec_of_string s =
  Spec_text.with_grammar known_names
    (match String.split_on_char ':' s with
    | [ "list-priority" ] -> Ok List_priority
    | [ "least-loaded" ] -> Ok Least_loaded_holder
    | [ "earliest-completion" ] -> Ok Earliest_estimated_completion
    | [ "locality" ] -> Ok Locality
    | [ "random" ] -> Ok (Random_tiebreak 0)
    | [ "random"; seed ] ->
        Result.map
          (fun seed -> Random_tiebreak seed)
          (Spec_text.(read Int) "random tie-break seed" seed)
    | _ -> Error (Printf.sprintf "unknown dispatch policy %S" s))

let builtin =
  [
    List_priority;
    Least_loaded_holder;
    Earliest_estimated_completion;
    Locality;
    Random_tiebreak 0;
  ]

type view = {
  n : int;
  m : int;
  order : int array;
  pos_of : int array;
  dispatchable : bool array;
  holders : Bitset.t array;
  est : float array;
  speed : float array;
  load : float array;
  now : float array;
  available : int -> bool;
  holders_stable : bool;
  topology : Topology.t option;
  size : float array;
}

type t = {
  select_m : machine:int -> int;
  notify : task:int -> unit;
}

(* The paper's rule, exactly as the monolithic engine implemented it: a
   per-machine cursor over the priority order. Every position skipped by
   the scan is unavailable to this machine at scan time; positions only
   become available again through [notify] (a killed task returning to
   the pool, a streaming arrival, or a re-replication growing a holder
   set), which rewinds every cursor that moved past them. Without such
   notifications the cursors are monotone and the total scan is
   O(m*n). *)
(* Allocation discipline (applies to every scan in this file): inner
   loops carry their state in integer parameters instead of refs and
   live at module level instead of capturing a fresh closure per call —
   a [let rec] inside [select] would allocate a closure on every
   dispatch decision. Selection returns a plain int (-1 = nothing) so
   no [Some j] is boxed on the hot path. *)
let rec lp_scan v cursor i pos =
  if pos >= v.n then -1
  else begin
    cursor.(i) <- pos + 1;
    let j = v.order.(pos) in
    if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then j
    else lp_scan v cursor i (pos + 1)
  end

let make_list_priority_plain v =
  let cursor = Array.make v.m 0 in
  let select_m ~machine:i = lp_scan v cursor i cursor.(i) in
  let notify ~task =
    let p = v.pos_of.(task) in
    for i = 0 to v.m - 1 do
      if cursor.(i) > p then cursor.(i) <- p
    done
  in
  { select_m; notify }

(* Bucketed list-priority for large instances: tasks sharing a holder
   set (physically — group placements share the bitset across the
   group's tasks) form a bucket whose members are listed in priority
   order, with ONE cursor per bucket instead of one per machine. A
   machine scans only the few buckets whose holder set contains it and
   takes the best bucket head — O(#buckets) per decision instead of
   O(n), which is what makes n=10⁶ dispatch feasible (the per-machine
   cursors would re-scan millions of already-dispatched positions after
   every rewind).

   Equivalence with the per-machine cursors: both return the minimum
   global position over dispatchable tasks holding machine [i].
   Advancing a bucket cursor past a non-dispatchable member is a global
   skip, valid because eligibility ([dispatchable] && static holder
   membership) does not depend on the asking machine; members turn
   dispatchable again only through [notify], which rewinds the bucket
   cursor just as the plain variant rewinds machine cursors. Requires
   [holders_stable] (sets never grow mid-run) — the engine clears it
   when online re-replication is active, and [make] falls back to the
   plain variant then, or when there are more than [max_lp_buckets]
   distinct sets (physical identity only: equal-but-distinct sets land
   in separate buckets, which is still correct — the head minimum just
   ranges over more buckets). *)
let max_lp_buckets = 64

type lp_state = {
  lp_pos_of : int array;
  lp_dispatchable : bool array;
  members : int array array;  (* bucket -> member tasks, priority order *)
  cursor : int array;  (* bucket -> index of its next candidate *)
  idx_in : int array;  (* task -> its index in members.(bucket) *)
  task_bucket : int array;  (* task -> bucket *)
  machine_buckets : int array array;  (* machine -> buckets holding it *)
}

let rec lpb_find reps count (set : Bitset.t) k =
  if k >= count then -1 else if reps.(k) == set then k else lpb_find reps count set (k + 1)

(* Advance bucket [b]'s cursor to its first dispatchable member; return
   that member or -1 when the bucket is exhausted. *)
let rec lpb_adv s b =
  let ms = s.members.(b) in
  let c = s.cursor.(b) in
  if c >= Array.length ms then -1
  else
    let j = ms.(c) in
    if s.lp_dispatchable.(j) then j
    else begin
      s.cursor.(b) <- c + 1;
      lpb_adv s b
    end

let rec lpb_best s bs k best best_pos =
  if k >= Array.length bs then best
  else
    let j = lpb_adv s bs.(k) in
    if j >= 0 && s.lp_pos_of.(j) < best_pos then
      lpb_best s bs (k + 1) j s.lp_pos_of.(j)
    else lpb_best s bs (k + 1) best best_pos

let bucket_state v task_bucket buckets =
  let sizes = Array.make buckets 0 in
  Array.iter (fun b -> sizes.(b) <- sizes.(b) + 1) task_bucket;
  let members = Array.init buckets (fun b -> Array.make sizes.(b) 0) in
  let idx_in = Array.make v.n 0 in
  let fill = Array.make buckets 0 in
  (* Walk the priority order so each bucket's members come out sorted by
     position. *)
  Array.iter
    (fun j ->
      let b = task_bucket.(j) in
      members.(b).(fill.(b)) <- j;
      idx_in.(j) <- fill.(b);
      fill.(b) <- fill.(b) + 1)
    v.order;
  let machine_lists = Array.make v.m [] in
  for j = v.n - 1 downto 0 do
    (* The first member of each bucket visits its holder set once. *)
    if idx_in.(j) = 0 then
      Bitset.iter
        (fun i -> machine_lists.(i) <- task_bucket.(j) :: machine_lists.(i))
        v.holders.(j)
  done;
  let machine_buckets = Array.map Array.of_list machine_lists in
  {
    lp_pos_of = v.pos_of;
    lp_dispatchable = v.dispatchable;
    members;
    cursor = Array.make buckets 0;
    idx_in;
    task_bucket;
    machine_buckets;
  }

(* The bucket state, or [None] when the holder sets may grow, or there
   are more than [max_lp_buckets] physically distinct ones, or no task. *)
let buckets v =
  if not v.holders_stable then None
  else begin
    (* Group by physical holder-set identity, capped. *)
    let reps = Array.make max_lp_buckets (Bitset.create 0) in
    let task_bucket = Array.make v.n (-1) in
    let count = ref 0 in
    match
      for j = 0 to v.n - 1 do
        let set = v.holders.(j) in
        let b = lpb_find reps !count set 0 in
        let b =
          if b >= 0 then b
          else if !count = max_lp_buckets then raise Exit
          else begin
            reps.(!count) <- set;
            incr count;
            !count - 1
          end
        in
        task_bucket.(j) <- b
      done
    with
    | () when !count > 0 -> Some (bucket_state v task_bucket !count)
    | () -> None
    | exception Exit -> None
  end

let lpb_notify s ~task =
  let b = s.task_bucket.(task) in
  let ix = s.idx_in.(task) in
  if s.cursor.(b) > ix then s.cursor.(b) <- ix

let make_list_priority v =
  match buckets v with
  | Some s ->
      let select_m ~machine:i = lpb_best s s.machine_buckets.(i) 0 (-1) max_int in
      { select_m; notify = lpb_notify s }
  | None -> make_list_priority_plain v

(* The scanning policies below (least-loaded, earliest-completion,
   locality, random tie-break) share a low-water mark: the lowest
   position of the order that may hold a dispatchable task. Every
   position below it holds a task out of the pool, so a scan starting
   there visits exactly the eligible tasks a scan from position 0 would,
   and returns the same one. Whether a position is skipped depends only
   on [dispatchable], never on the asking machine. The mark advances past
   non-dispatchable positions at the start of each decision, and
   [notify] rewinds it to the position of a task that re-entered the
   pool: a kill, a streaming arrival, or (harmlessly, since holder sets
   play no part in it) a landed re-replication. *)
let rec skip_out_of_pool v pos =
  if pos < v.n && not v.dispatchable.(v.order.(pos)) then
    skip_out_of_pool v (pos + 1)
  else pos

let low_water v low =
  let pos = skip_out_of_pool v !low in
  low := pos;
  pos

let rewind v low ~task =
  let pos = v.pos_of.(task) in
  if pos < !low then low := pos

(* Locality/load-aware rule: the idle machine takes the highest-priority
   eligible task for which it is a least-loaded available holder — no
   other available holder of the task's data has strictly smaller
   dispatched load. A machine thus defers work that a less-loaded
   replica holder could take, and grabs first the tasks it is the best
   (or only) home for. Falls back to the highest-priority eligible task
   when no task prefers this machine, so the rule stays
   work-conserving. [ll_better] is [Bitset.iter] over the holder set
   unrolled to an index scan (the two are defined to visit the same
   indices), with the original early exit kept as short-circuiting. *)
let rec ll_better v j i k =
  k < v.m
  && ((k <> i
      && Bitset.mem v.holders.(j) k
      && v.available k
      && v.load.(k) < v.load.(i))
     || ll_better v j i (k + 1))

let rec ll_scan v i ~fallback pos =
  if pos >= v.n then fallback
  else
    let j = v.order.(pos) in
    if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then
      let fallback = if fallback < 0 then j else fallback in
      if ll_better v j i 0 then ll_scan v i ~fallback (pos + 1) else j
    else ll_scan v i ~fallback (pos + 1)

(* Bucketed least-loaded, over list-priority's buckets: [ll_better v j i 0]
   reads task [j] only through its holder set, so it has one answer per
   bucket during a decision. The scan's answer — the first eligible task
   that this machine need not defer, else the first eligible task — is
   then the best head among the machine's non-deferring buckets, else
   the best head among all of them: O(#buckets * m) per decision instead
   of a walk over the order that defers a whole group's tasks one by
   one. *)
let rec llb_best v s bs i k best best_pos first first_pos =
  if k >= Array.length bs then if best >= 0 then best else first
  else
    let j = lpb_adv s bs.(k) in
    if j < 0 then llb_best v s bs i (k + 1) best best_pos first first_pos
    else
      let p = s.lp_pos_of.(j) in
      let first' = if p < first_pos then j else first in
      let first_pos' = if p < first_pos then p else first_pos in
      if p < best_pos && not (ll_better v j i 0) then
        llb_best v s bs i (k + 1) j p first' first_pos'
      else llb_best v s bs i (k + 1) best best_pos first' first_pos'

let make_least_loaded v =
  match buckets v with
  | Some s ->
      let select_m ~machine:i =
        llb_best v s s.machine_buckets.(i) i 0 (-1) max_int (-1) max_int
      in
      { select_m; notify = lpb_notify s }
  | None ->
      let low = ref 0 in
      let select_m ~machine:i = ll_scan v i ~fallback:(-1) (low_water v low) in
      { select_m; notify = rewind v low }

(* Shortest-estimated-processing-time on this machine: take the eligible
   task minimizing est(j) / speed(i) — the copy this machine can finish
   earliest, by estimates only (the scheduler is semi-clairvoyant and
   never sees actuals). Ties resolve to the priority order. The scan
   carries only the best task id and recomputes both divisions at each
   comparison: the quotients live in compare position so they stay
   unboxed, where a float parameter or ref would box on every step.
   (The divisions must both be taken — [e1/s < e2/s] is not [e1 < e2]
   in floating point, and the reference qcheck in test_dispatch pins
   the division-based tie behaviour.) *)
let rec ec_scan v i pos best =
  if pos >= v.n then best
  else
    let j = v.order.(pos) in
    let best =
      if
        v.dispatchable.(j)
        && Bitset.mem v.holders.(j) i
        && (best < 0 || v.est.(j) /. v.speed.(i) < v.est.(best) /. v.speed.(i))
      then j
      else best
    in
    ec_scan v i (pos + 1) best

let make_earliest_completion v =
  let low = ref 0 in
  let select_m ~machine:i = ec_scan v i (low_water v low) (-1) in
  { select_m; notify = rewind v low }

(* Locality-aware least-loaded: the deferral rule of [Least_loaded_holder]
   with each candidate holder's load inflated by the staging time it
   would pay to pull the task's data across zones from its home machine
   [j mod m] (holders already in the home zone stage for free). A
   machine grabs first the tasks it is the cheapest home for — counting
   both queue length and data movement — and defers work that a
   holder with a strictly smaller load-plus-staging total could take,
   falling back to plain priority order so the rule stays
   work-conserving. Without a topology the penalty is identically zero
   and the policy IS [make_least_loaded] (same scans, zero-alloc). *)
let rec loc_better v topo j i k =
  k < v.m
  && ((k <> i
      && Bitset.mem v.holders.(j) k
      && v.available k
      && v.load.(k)
         +. Topology.staging_time topo ~src:(j mod v.m) ~dst:k ~size:v.size.(j)
         < v.load.(i)
           +. Topology.staging_time topo ~src:(j mod v.m) ~dst:i
                ~size:v.size.(j))
     || loc_better v topo j i (k + 1))

let rec loc_scan v topo i ~fallback pos =
  if pos >= v.n then fallback
  else
    let j = v.order.(pos) in
    if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then
      let fallback = if fallback < 0 then j else fallback in
      if loc_better v topo j i 0 then loc_scan v topo i ~fallback (pos + 1)
      else j
    else loc_scan v topo i ~fallback (pos + 1)

let make_locality v =
  match v.topology with
  | None -> make_least_loaded v
  | Some topo ->
      let low = ref 0 in
      let select_m ~machine:i =
        loc_scan v topo i ~fallback:(-1) (low_water v low)
      in
      { select_m; notify = rewind v low }

(* List priority with seeded random resolution of genuine priority ties:
   among the eligible tasks whose estimate equals the highest-priority
   eligible one's, pick uniformly. With all-distinct estimates this
   coincides with [List_priority]; on identical- or few-valued workloads
   it randomizes the order within each tie class. Deterministic given
   the seed (one RNG draw per tied decision). *)
let make_random_tiebreak seed v =
  let rng = Rng.create ~seed () in
  let candidates = Array.make (Stdlib.max 1 v.n) 0 in
  let low = ref 0 in
  (* With estimates non-increasing along the order (the LPT order), no
     position after the first estimate below the leader's can tie it, so
     the tie scan stops there. *)
  let sorted =
    let ok = ref true in
    for pos = 0 to v.n - 2 do
      if not (v.est.(v.order.(pos)) >= v.est.(v.order.(pos + 1))) then ok := false
    done;
    !ok
  in
  let select_m ~machine:i =
    let rec first pos =
      if pos >= v.n then -1
      else
        let j = v.order.(pos) in
        if v.dispatchable.(j) && Bitset.mem v.holders.(j) i then pos
        else first (pos + 1)
    in
    let pos0 = first (low_water v low) in
    if pos0 < 0 then -1
    else begin
      let j0 = v.order.(pos0) in
      let e0 = v.est.(j0) in
      let count = ref 0 in
      let pos = ref pos0 in
      while !pos < v.n && not (sorted && v.est.(v.order.(!pos)) < e0) do
        let j = v.order.(!pos) in
        if v.dispatchable.(j) && Bitset.mem v.holders.(j) i && v.est.(j) = e0
        then begin
          candidates.(!count) <- j;
          incr count
        end;
        incr pos
      done;
      if !count <= 1 then j0 else candidates.(Rng.int rng !count)
    end
  in
  { select_m; notify = rewind v low }

let make spec v =
  if v.n <> Array.length v.order || v.n <> Array.length v.pos_of then
    invalid_arg "Dispatch.make: order/pos_of length differs from task count";
  if v.n <> Array.length v.est then
    invalid_arg "Dispatch.make: est length differs from task count";
  if v.m <> Array.length v.speed then
    invalid_arg "Dispatch.make: speed length differs from machine count";
  if Array.length v.now <> 1 then invalid_arg "Dispatch.make: now must have length 1";
  (match v.topology with
  | Some _ when v.n <> Array.length v.size ->
      invalid_arg
        "Dispatch.make: size length differs from task count (required with a \
         topology)"
  | _ -> ());
  match spec with
  | List_priority -> make_list_priority v
  | Least_loaded_holder -> make_least_loaded v
  | Earliest_estimated_completion -> make_earliest_completion v
  | Locality -> make_locality v
  | Random_tiebreak seed -> make_random_tiebreak seed v

let select_machine t ~machine = t.select_m ~machine

let notify_available t ~task = t.notify ~task

(* THE re-dispatch determinism contract, in exactly one place: the two
   machines a speculative race frees at the same instant look for new
   work in increasing machine id. Documented in the engine's interface;
   pinned by test_dispatch. *)
let redispatch_order _t a b = if a <= b then (a, b) else (b, a)
