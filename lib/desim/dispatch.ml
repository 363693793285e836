module Bitset = Usched_model.Bitset
module Set_table = Usched_model.Set_table
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
  sets : Set_table.t;
  group_of : int array;
  first : int array;
  members : int array;
  est : float array;
  speed : float array;
  load : float array;
  now : float array;
  available : int -> bool;
  topology : Topology.t option;
  size : float array;
}

(* Allocation discipline (applies to every walk in this file): inner
   loops carry their state in integer parameters and live at module
   level, taking any closure they call as an argument made once per run
   — a [let rec] inside a selection would allocate a closure on every
   decision. Selection returns a plain int (-1 = nothing), never a
   boxed [Some j]. *)

(* The set index behind every policy. A group is one distinct holder
   set of [v.sets].

   - The view's listing gives each group present at the start (a
     "listed" group) its tasks in priority order,
     [members.(first.(g) ..)]; [cursor.(g)] is the group's next
     candidate. The group's head is its minimum-position dispatchable
     task still in it: the cursor skips a task out of the pool or moved
     out, and a task's place in the listing is found by binary search
     on its position.
   - A task that a landed re-replication moved (the engine interned its
     grown set and changed [group_of]) is listed nowhere it holds now;
     from its next [notify] on it is a candidate of its own.
   - Each machine keeps a min-heap of its candidates: an entry per
     (machine, listed group holding it) pair, keyed by a lower bound on
     the group's head position, and an entry per notified moved task
     holding it, keyed by its position.

   A decision looks at the top entry: a moved task out of the pool, or a
   group with no head, leaves the heap; a group whose head has passed
   its key is re-keyed to the head; otherwise the top is the answer.
   Every key is a lower bound, so that answer is the minimum-position
   dispatchable task holding the machine, as the scan over the whole
   order would find, at O(log) heap steps per decision however many
   sets there are. Heads only move forward until [notify] returns a
   task: it rewinds the task's listed cursor and lowers the key of the
   group's pairs on every machine of the set (skipped when [lo.(g)], an
   upper bound on those keys, is already at most the task's position),
   or pushes a moved task on the heaps of its holders. A pair has at
   most one entry, found through [where]. *)
type index = {
  v : view;
  listed : int;  (* the listed groups *)
  cursor : int array;  (* listed group -> index of its next candidate *)
  lo : int array;
      (* listed group -> an upper bound on the keys of its pairs' entries,
         or [max_int] when some pair may have none *)
  pair_first : int array;  (* machine -> its first pair; [m + 1] *)
  pair_group : int array;  (* pair -> its group, increasing per machine *)
  where : int array;  (* pair -> its entry's index in the heap, 0 = none *)
  heaps : int array array;
      (* machine -> heap: [h.(0)] entries, entry [e >= 1] has key
         [h.(2e)] and candidate [h.(2e + 1)], a pair [>= 0] or a moved
         task [j] as [-j - 1] *)
  mutable scratch : int array;  (* entries set aside, or tied positions *)
  mutable bound : int;  (* [fold_eligible]'s position bound, or [max_int] *)
}

let set_entry ix h e k c =
  h.(2 * e) <- k;
  h.(2 * e + 1) <- c;
  if c >= 0 then ix.where.(c) <- e

(* Place candidate [c] with key [k] at entry [e] or above it. *)
let rec sift_up ix h e k c =
  let up = e / 2 in
  if e > 1 && h.(2 * up) > k then begin
    set_entry ix h e h.(2 * up) h.((2 * up) + 1);
    sift_up ix h up k c
  end
  else set_entry ix h e k c

(* Place candidate [c] with key [k] at entry [e] or below it. *)
let rec sift_down ix h e k c =
  let l = 2 * e in
  if l > h.(0) then set_entry ix h e k c
  else
    let s = if l < h.(0) && h.(2 * (l + 1)) < h.(2 * l) then l + 1 else l in
    if h.(2 * s) < k then begin
      set_entry ix h e h.(2 * s) h.((2 * s) + 1);
      sift_down ix h s k c
    end
    else set_entry ix h e k c

let push ix i k c =
  let h = ix.heaps.(i) in
  let len = h.(0) + 1 in
  let h =
    if (2 * len) + 1 < Array.length h then h
    else begin
      let grown = Array.make (4 * (len + 1)) 0 in
      Array.blit h 0 grown 0 (2 * len);
      ix.heaps.(i) <- grown;
      grown
    end
  in
  h.(0) <- len;
  sift_up ix h len k c

let remove_top ix h =
  let len = h.(0) in
  if h.(3) >= 0 then ix.where.(h.(3)) <- 0;
  h.(0) <- len - 1;
  if len > 1 then sift_down ix h 1 h.(2 * len) h.((2 * len) + 1)

let rec skip ix g c stop =
  if c >= stop then c
  else
    let j = ix.v.members.(c) in
    if ix.v.dispatchable.(j) && ix.v.group_of.(j) = g then c
    else skip ix g (c + 1) stop

let head ix g =
  let stop = ix.v.first.(g + 1) in
  let c = skip ix g ix.cursor.(g) stop in
  ix.cursor.(g) <- c;
  if c < stop then ix.v.members.(c) else -1

(* The minimum-position dispatchable task holding machine [i], left at
   the top of its heap [h], or -1. *)
let rec top ix h =
  if h.(0) = 0 then -1
  else
    let k = h.(2) and c = h.(3) in
    if c < 0 then begin
      let j = -c - 1 in
      if ix.v.dispatchable.(j) then j
      else begin
        remove_top ix h;
        top ix h
      end
    end
    else
      let g = ix.pair_group.(c) in
      let j = head ix g in
      if j < 0 then begin
        remove_top ix h;
        ix.lo.(g) <- max_int;
        top ix h
      end
      else
        let p = ix.v.pos_of.(j) in
        if p > k then begin
          sift_down ix h 1 p c;
          if ix.lo.(g) < p then ix.lo.(g) <- p;
          (* Still on top with its exact key: the answer. *)
          if h.(3) = c then j else top ix h
        end
        else j

(* The pair of machine [i]'s pairs [lo .. hi - 1] whose group is [g]. *)
let rec find_pair ix g lo hi =
  let mid = (lo + hi) / 2 in
  let h = ix.pair_group.(mid) in
  if h = g then mid
  else if h < g then find_pair ix g (mid + 1) hi
  else find_pair ix g lo mid

(* Key [k] or less for group [g]'s entry on every machine of its set
   from machine [i] on. *)
let rec lower_pairs ix g k set i =
  let i = Bitset.next set i in
  if i >= 0 then begin
    let q = find_pair ix g ix.pair_first.(i) ix.pair_first.(i + 1) in
    let e = ix.where.(q) in
    let h = ix.heaps.(i) in
    if e = 0 then push ix i k q else if h.(2 * e) > k then sift_up ix h e k q;
    lower_pairs ix g k set (i + 1)
  end

let rec push_task ix c k set i =
  let i = Bitset.next set i in
  if i >= 0 then begin
    push ix i k c;
    push_task ix c k set (i + 1)
  end

(* The index in [members] of the listed task at position [p] among
   [members.(lo .. hi - 1)], which are sorted by position, or -1. *)
let rec find_listed v p lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let q = v.pos_of.(v.members.(mid)) in
    if q = p then mid
    else if q < p then find_listed v p (mid + 1) hi
    else find_listed v p lo mid

let notify ix ~task:j =
  let g = ix.v.group_of.(j) and p = ix.v.pos_of.(j) in
  let c =
    if g < ix.listed then find_listed ix.v p ix.v.first.(g) ix.v.first.(g + 1)
    else -1
  in
  if c < 0 then push_task ix (-j - 1) p (Set_table.get ix.v.sets g) 0
  else begin
    if ix.cursor.(g) > c then ix.cursor.(g) <- c;
    if ix.lo.(g) > p then begin
      lower_pairs ix g p (Set_table.get ix.v.sets g) 0;
      ix.lo.(g) <- p
    end
  end

let rec count_pairs counts set i =
  let i = Bitset.next set i in
  if i >= 0 then begin
    counts.(i + 1) <- counts.(i + 1) + 1;
    count_pairs counts set (i + 1)
  end

let rec fill_pairs ix fill g set i =
  let i = Bitset.next set i in
  if i >= 0 then begin
    let q = fill.(i) in
    ix.pair_group.(q) <- g;
    fill.(i) <- q + 1;
    push ix i ix.lo.(g) q;
    fill_pairs ix fill g set (i + 1)
  end

(* Every pair starts keyed by its group's first listed task: no head
   comes before it. *)
let index v =
  let listed = Array.length v.first - 1 in
  let pair_first = Array.make (v.m + 1) 0 in
  for g = 0 to listed - 1 do
    count_pairs pair_first (Set_table.get v.sets g) 0
  done;
  for i = 1 to v.m do
    pair_first.(i) <- pair_first.(i) + pair_first.(i - 1)
  done;
  let pairs = pair_first.(v.m) in
  let ix =
    {
      v;
      listed;
      cursor = Array.sub v.first 0 listed;
      lo = Array.make listed 0;
      pair_first;
      pair_group = Array.make pairs 0;
      where = Array.make pairs 0;
      heaps =
        Array.init v.m (fun i ->
            Array.make ((2 * (pair_first.(i + 1) - pair_first.(i))) + 4) 0);
      scratch = [||];
      bound = max_int;
    }
  in
  for g = 0 to listed - 1 do
    ix.lo.(g) <- v.pos_of.(v.members.(v.first.(g)))
  done;
  let fill = Array.sub pair_first 0 v.m in
  for g = 0 to listed - 1 do
    fill_pairs ix fill g (Set_table.get v.sets g) 0
  done;
  ix

(* The policies that read more than the leader fold [visit i j acc] over
   every eligible task [j] of machine [i], from its heap's entry [e = 1]:
   each listed group's members from its head on, and each moved task,
   which may sit there twice (a visit must allow it). A visit may lower
   [bound] to a position from which on no task can change [acc]: a
   group's walk ends there and a moved task there is skipped. The fold
   resets [bound] when it ends. *)
let rec fold_members ix visit i g c acc =
  if c >= ix.v.first.(g + 1) then acc
  else
    let j = ix.v.members.(c) in
    if ix.v.pos_of.(j) >= ix.bound then acc
    else
      fold_members ix visit i g (c + 1)
        (if ix.v.dispatchable.(j) && ix.v.group_of.(j) = g then visit i j acc
         else acc)

let rec fold_eligible ix visit i e acc =
  let h = ix.heaps.(i) in
  if e > h.(0) then begin
    ix.bound <- max_int;
    acc
  end
  else
    let c = h.((2 * e) + 1) in
    let acc =
      if c < 0 then
        let j = -c - 1 in
        if ix.v.dispatchable.(j) && ix.v.pos_of.(j) < ix.bound then
          visit i j acc
        else acc
      else
        let g = ix.pair_group.(c) in
        if head ix g < 0 then acc
        else fold_members ix visit i g ix.cursor.(g) acc
    in
    fold_eligible ix visit i (e + 1) acc

(* Store [x] at [ix.scratch.(k)], growing the scratch. *)
let stash ix k x =
  if k >= Array.length ix.scratch then
    ix.scratch <- Array.append ix.scratch (Array.make (k + 1) 0);
  ix.scratch.(k) <- x

(* Locality/load-aware rule: the idle machine takes the highest-priority
   eligible task for which it is a least-loaded available holder — no
   other available holder of the task's data has strictly smaller
   dispatched load. A machine thus defers work that a less-loaded
   replica holder could take, and grabs first the tasks it is the best
   (or only) home for. Falls back to the highest-priority eligible task
   when no task prefers this machine, so the rule stays
   work-conserving.

   The machine's candidates come off its heap in priority order.
   [ll_better] reads a task only through its holder set, so a deferred
   group's later tasks are deferred too: its entry is set aside whole,
   and the walk stops at the first candidate the machine need not
   defer. The entries set aside go back with their keys. *)
let rec ll_better v set i k =
  let k = Bitset.next set k in
  k >= 0
  && ((k <> i && v.available k && v.load.(k) < v.load.(i))
     || ll_better v set i (k + 1))

let rec ll_walk ix i h first n =
  let j = top ix h in
  if j >= 0 && ll_better ix.v (Set_table.get ix.v.sets ix.v.group_of.(j)) i 0
  then begin
    stash ix (2 * n) h.(2);
    stash ix ((2 * n) + 1) h.(3);
    remove_top ix h;
    ll_walk ix i h (if first < 0 then j else first) (n + 1)
  end
  else begin
    for k = 0 to n - 1 do
      push ix i ix.scratch.(2 * k) ix.scratch.((2 * k) + 1)
    done;
    if j >= 0 then j else first
  end

let least_loaded ix ~machine:i = ll_walk ix i ix.heaps.(i) (-1) 0

(* Shortest-estimated-processing-time on this machine: take the eligible
   task minimizing est(j) / speed(i) — the copy this machine can finish
   earliest, by estimates only (the scheduler is semi-clairvoyant and
   never sees actuals). Ties resolve to the priority order, so the fold
   may meet the tasks in any order. Both divisions are taken: [e1/s <
   e2/s] is not [e1 < e2] in floating point. *)
let earliest_completion ix =
  let v = ix.v in
  let visit i j best =
    if best < 0 then j
    else
      let q = v.est.(j) /. v.speed.(i) in
      let q_best = v.est.(best) /. v.speed.(i) in
      if q < q_best || (q = q_best && v.pos_of.(j) < v.pos_of.(best)) then j
      else best
  in
  fun ~machine:i -> fold_eligible ix visit i 1 (-1)

(* Locality-aware least-loaded: the deferral rule of [Least_loaded_holder]
   with each candidate holder's load inflated by the staging time it
   would pay to pull the task's data across zones from its home machine
   [j mod m] (holders already in the home zone stage for free). A
   machine grabs first the tasks it is the cheapest home for — counting
   both queue length and data movement — and defers work that a
   holder with a strictly smaller load-plus-staging total could take,
   falling back to plain priority order so the rule stays
   work-conserving. Without a topology, or with a single zone, the
   penalty is identically zero and the policy IS [least_loaded].
   Otherwise deferral depends on the task, not only on its set: the
   fold keeps the minimum-position task the machine need not defer
   (bounding the walk there) and falls back to the leader. Staging is
   read into the one-cell [cell], so no float is boxed across the
   module boundary. *)
let rec loc_better v topo cell set j i k =
  let k = Bitset.next set k in
  k >= 0
  && (k <> i
      && v.available k
      && begin
           Topology.staging_into topo ~src:(j mod v.m) ~dst:k ~sizes:v.size j
             cell;
           let via_k = v.load.(k) +. cell.(0) in
           Topology.staging_into topo ~src:(j mod v.m) ~dst:i ~sizes:v.size j
             cell;
           via_k < v.load.(i) +. cell.(0)
         end
     || loc_better v topo cell set j i (k + 1))

let locality ix topo =
  let v = ix.v and cell = [| 0.0 |] in
  let visit i j best =
    if loc_better v topo cell (Set_table.get v.sets v.group_of.(j)) j i 0
    then best
    else begin
      ix.bound <- v.pos_of.(j);
      j
    end
  in
  fun ~machine:i ->
    let best = fold_eligible ix visit i 1 (-1) in
    if best >= 0 then best else top ix ix.heaps.(i)

(* Sift [x] down from [a.(p)] in the max-heap [a.(0 .. k - 1)]. *)
let rec sift_ints a k p x =
  let l = (2 * p) + 1 in
  let l = if l + 1 < k && a.(l + 1) > a.(l) then l + 1 else l in
  if l < k && a.(l) > x then begin
    a.(p) <- a.(l);
    sift_ints a k l x
  end
  else a.(p) <- x

(* Keep the distinct values of the sorted [a.(r .. k - 1)] from [a.(d)] on. *)
let rec distinct a k r d =
  if r >= k then d
  else if d > 0 && a.(r) = a.(d - 1) then distinct a k (r + 1) d
  else begin
    a.(d) <- a.(r);
    distinct a k (r + 1) (d + 1)
  end

(* Heapsort [a.(0 .. k - 1)], leave its distinct values at its front and
   return their count. *)
let sort_distinct a k =
  for p = (k / 2) - 1 downto 0 do sift_ints a k p a.(p) done;
  for last = k - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    sift_ints a last 0 x
  done;
  distinct a k 0 0

(* List priority with seeded random resolution of genuine priority ties:
   among the eligible tasks whose estimate equals the highest-priority
   eligible one's, pick uniformly. With all-distinct estimates this
   coincides with [List_priority]; on identical- or few-valued workloads
   it randomizes the order within each tie class. Deterministic given
   the seed: one draw per tied decision, among the tied positions
   sorted as a scan of the order meets them. On an estimate-sorted
   order (LPT) no task past the first smaller estimate ties. *)
let rec by_estimate v pos =
  pos >= v.n - 1
  || v.est.(v.order.(pos)) >= v.est.(v.order.(pos + 1))
     && by_estimate v (pos + 1)

let random_tiebreak ix seed =
  let v = ix.v and rng = Rng.create ~seed () and leader = ref (-1) in
  let sorted = by_estimate v 0 in
  let visit _ j count =
    if v.est.(j) = v.est.(!leader) then begin
      stash ix count v.pos_of.(j);
      count + 1
    end
    else begin
      if sorted && v.est.(j) < v.est.(!leader) then ix.bound <- v.pos_of.(j);
      count
    end
  in
  fun ~machine:i ->
    leader := top ix ix.heaps.(i);
    if !leader < 0 then -1
    else
      let count = sort_distinct ix.scratch (fold_eligible ix visit i 1 0) in
      if count <= 1 then !leader else v.order.(ix.scratch.(Rng.int rng count))

type t = { ix : index; select_m : machine:int -> int }

let make spec v =
  if v.n <> Array.length v.order || v.n <> Array.length v.pos_of then
    invalid_arg "Dispatch.make: order/pos_of length differs from task count";
  if v.n <> Array.length v.group_of || v.n <> Array.length v.members then
    invalid_arg "Dispatch.make: group_of/members length differs from task count";
  if Array.length v.first < 1 then invalid_arg "Dispatch.make: first is empty";
  if v.n <> Array.length v.est then
    invalid_arg "Dispatch.make: est length differs from task count";
  if v.m <> Array.length v.speed then
    invalid_arg "Dispatch.make: speed length differs from machine count";
  if Array.length v.now <> 1 then invalid_arg "Dispatch.make: now must have length 1";
  if Option.is_some v.topology && v.n <> Array.length v.size then
    invalid_arg
      "Dispatch.make: size length differs from task count (required with a \
       topology)";
  let ix = index v in
  let select_m =
    match (spec, v.topology) with
    | List_priority, _ -> fun ~machine:i -> top ix ix.heaps.(i)
    | Locality, Some topo when not (Topology.is_uniform topo) ->
        locality ix topo
    | (Least_loaded_holder | Locality), _ -> least_loaded ix
    | Earliest_estimated_completion, _ -> earliest_completion ix
    | Random_tiebreak seed, _ -> random_tiebreak ix seed
  in
  { ix; select_m }

let select_machine t ~machine = t.select_m ~machine

let notify_available t ~task = notify t.ix ~task

(* THE re-dispatch determinism contract, in exactly one place: the two
   machines a speculative race frees at the same instant look for new
   work in increasing machine id. Documented in the engine's interface;
   pinned by test_dispatch. *)
let redispatch_order _t a b = if a <= b then (a, b) else (b, a)
