(* First-fit-decreasing feasibility, driven by a segment tree of bin
   minima instead of a linear scan: the leftmost bin that admits a task
   is found in O(log m), so one FFD pass costs O(n log m) rather than
   O(n·m), and the packing state is flat float arrays reused across the
   bisection iterations (no per-pass allocation beyond the first).

   Exactness: the descent test [subtree_min +. w <= limit] decides
   "some bin in this subtree fits" — IEEE [+.] is monotone in its first
   argument, so the subtree minimum fits iff any leaf does — and taking
   the left child whenever it fits reproduces the linear first-fit
   choice bit for bit, including the accumulated bin loads (same
   additions in the same order).

   Allocation discipline: the descent and the path-min rebuild are
   written inline in their callers, walking the tree through one int
   ref hoisted outside the scan loop — as standalone helpers they would
   re-box the float arguments and allocate a fresh ref on every task. *)

module Argsort = Usched_model.Argsort

let eps_for capacity = 1e-12 *. Float.max 1.0 capacity

let pow2_ge m =
  let rec go k = if k >= m then k else go (2 * k) in
  go 1

(* tree.(1) is the min load over all bins; bin i's leaf is
   tree.(msize + i); padding leaves are +inf so they never admit work. *)
let tree_reset (tree : float array) msize m =
  for i = 0 to m - 1 do
    tree.(msize + i) <- 0.0
  done;
  for i = m to msize - 1 do
    tree.(msize + i) <- infinity
  done;
  for i = msize - 1 downto 1 do
    tree.(i) <- Float.min tree.(2 * i) tree.((2 * i) + 1)
  done

(* One FFD pass over [sorted] at [limit]: find each task's leftmost
   admitting bin, add it there, record the choice. Returns
   true when everything fit. [cur] is the caller's scratch cursor. *)
let ffd_pass (tree : float array) msize ~limit ~(sorted : float array) ~cur
    ~record =
  let n = Array.length sorted in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let w = sorted.(!k) in
    (* leftmost-fit descent *)
    if not (tree.(1) +. w <= limit) then ok := false
    else begin
      cur := 1;
      while !cur < msize do
        let l = 2 * !cur in
        cur := if tree.(l) +. w <= limit then l else l + 1
      done;
      let bin = !cur - msize in
      record !k bin;
      (* leaf update + path-min rebuild *)
      tree.(!cur) <- tree.(!cur) +. w;
      while !cur > 1 do
        cur := !cur / 2;
        tree.(!cur) <- Float.min tree.(2 * !cur) tree.((2 * !cur) + 1)
      done
    end;
    incr k
  done;
  !ok

let schedule ?(iterations = 20) ~m (p : float array) =
  if m < 1 then invalid_arg "Multifit: m must be >= 1";
  for k = 0 to Array.length p - 1 do
    if p.(k) < 0.0 then invalid_arg "Multifit: negative time"
  done;
  if Array.length p = 0 then
    { Assign.assignment = [||]; loads = Array.make m 0.0 }
  else begin
    let n = Array.length p in
    let lo = ref (Float.max (Lower_bounds.average ~m p) (Lower_bounds.largest p)) in
    (* Sorted once; every bisection iteration replays the same decreasing
       order (ties by id, exactly [Argsort.decreasing]), testing
       feasibility and recording the packing in a single pass. The LPT
       fallback shares the same order rather than re-sorting. *)
    let order = Argsort.decreasing p in
    let lpt = Assign.list_assign ~m ~weights:p ~order in
    let hi = ref (Assign.makespan lpt) in
    let sorted = Array.make n 0.0 in
    for k = 0 to n - 1 do
      sorted.(k) <- p.(order.(k))
    done;
    let msize = pow2_ge m in
    let tree = Array.make (2 * msize) 0.0 in
    let assignment = Array.make n 0 in
    let best_assignment = Array.make n 0 in
    let best_loads = Array.make m 0.0 in
    let found = ref false in
    let cur = ref 0 in
    let record k bin = assignment.(order.(k)) <- bin in
    for _ = 1 to iterations do
      let capacity = 0.5 *. (!lo +. !hi) in
      let limit = capacity +. eps_for capacity in
      tree_reset tree msize m;
      if ffd_pass tree msize ~limit ~sorted ~cur ~record then begin
        found := true;
        Array.blit assignment 0 best_assignment 0 n;
        for i = 0 to m - 1 do
          best_loads.(i) <- tree.(msize + i)
        done;
        hi := capacity
      end
      else lo := capacity
    done;
    if !found then { Assign.assignment = best_assignment; loads = best_loads }
    else lpt
  end

let makespan ~m p = Assign.makespan (schedule ~m p)
