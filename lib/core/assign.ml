module Argsort = Usched_model.Argsort

type result = { assignment : int array; loads : float array }

let check_order n order =
  if Array.length order <> n then
    invalid_arg "Assign: order length differs from weights";
  (* One bit per task (n/62 words), where a [bool array] took a word. *)
  let seen = Usched_model.Bitset.create n in
  Array.iter
    (fun j ->
      if j < 0 || j >= n || Usched_model.Bitset.mem seen j then
        invalid_arg "Assign: order is not a permutation";
      Usched_model.Bitset.add seen j)
    order

(* Min-heap over (load, machine id) gives O(n log m) assignment. The
   heap is two flat lanes — a float lane of loads and an int lane of
   machine ids — and every step replaces the root in place and sifts
   down, so the loop allocates nothing (the old boxed-pair queue consed
   a tuple per pop and per push). Keys are unique (ties on load break
   by id), so extracting the multiset minimum at each step is
   layout-independent: the assignment sequence is identical to the
   pop/push original. *)
(* The [float array] annotation matters: without it the function is
   polymorphic, every [hload.(_)] is a generic get that boxes the
   element, and the "allocation-free" loop allocates on every
   comparison. *)
let rec sift_down (hload : float array) hid size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c =
      if
        r < size
        && (hload.(r) < hload.(l) || (hload.(r) = hload.(l) && hid.(r) < hid.(l)))
      then r
      else l
    in
    if hload.(c) < hload.(i) || (hload.(c) = hload.(i) && hid.(c) < hid.(i))
    then begin
      let tl = hload.(i) in
      hload.(i) <- hload.(c);
      hload.(c) <- tl;
      let ti = hid.(i) in
      hid.(i) <- hid.(c);
      hid.(c) <- ti;
      sift_down hload hid size c
    end
  end

let list_assign ~m ~(weights : float array) ~order =
  if m < 1 then invalid_arg "Assign: m must be >= 1";
  (* for-loop, not [Array.iter]: the generic iterator boxes every float
     element it passes to the closure. *)
  for k = 0 to Array.length weights - 1 do
    if weights.(k) < 0.0 then invalid_arg "Assign: negative weight"
  done;
  let n = Array.length weights in
  check_order n order;
  (* All-zero loads with ids in increasing order is already a valid
     heap. *)
  let hload = Array.make m 0.0 in
  let hid = Array.init m (fun i -> i) in
  let assignment = Array.make n 0 in
  let loads = Array.make m 0.0 in
  Array.iter
    (fun j ->
      let i = hid.(0) in
      assignment.(j) <- i;
      let load = hload.(0) +. weights.(j) in
      loads.(i) <- load;
      hload.(0) <- load;
      sift_down hload hid m 0)
    order;
  { assignment; loads }

let ls ~m ~weights =
  list_assign ~m ~weights ~order:(Array.init (Array.length weights) (fun j -> j))

let lpt ~m ~weights = list_assign ~m ~weights ~order:(Argsort.decreasing weights)

let makespan result = Array.fold_left Float.max 0.0 result.loads
