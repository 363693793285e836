(* Open addressing with linear probing over a power-of-two slot array,
   at most half full. A slot holds a set's index, or -1. *)
type t = {
  mutable sets : Bitset.t array;
  mutable count : int;
  mutable slots : int array;
  mutable last : int;  (* the previous hit: the physical-identity probe *)
}

let no_set = Bitset.create 0

let create () =
  {
    sets = Array.make 8 no_set;
    count = 0;
    slots = Array.make 16 (-1);
    last = 0;
  }

let count t = t.count
let get t g = t.sets.(g)
let to_array t = Array.sub t.sets 0 t.count

let copy t =
  { sets = Array.copy t.sets; count = t.count; slots = Array.copy t.slots; last = t.last }

let rec free_slot slots mask k =
  if slots.(k) < 0 then k else free_slot slots mask ((k + 1) land mask)

let grow t =
  let cap = 2 * Array.length t.sets in
  let sets = Array.make cap no_set in
  Array.blit t.sets 0 sets 0 t.count;
  t.sets <- sets;
  let slots = Array.make (2 * cap) (-1) in
  let mask = (2 * cap) - 1 in
  for g = 0 to t.count - 1 do
    slots.(free_slot slots mask (Bitset.hash sets.(g) land mask)) <- g
  done;
  t.slots <- slots

let add t set k =
  let g = t.count in
  t.sets.(g) <- set;
  t.slots.(k) <- g;
  t.count <- g + 1;
  t.last <- g;
  if t.count = Array.length t.sets then grow t;
  g

let rec probe t set k =
  let g = t.slots.(k) in
  if g < 0 then add t set k
  else if t.sets.(g) == set || Bitset.equal t.sets.(g) set then begin
    t.last <- g;
    g
  end
  else probe t set ((k + 1) land (Array.length t.slots - 1))

(* Group placements share one physical set per group, so the first few
   sets are tried by identity before the set is hashed. *)
let physical_probes = 8

let rec find_physical sets count set g =
  if g >= count then -1
  else if sets.(g) == set then g
  else find_physical sets count set (g + 1)

let intern t set =
  if t.count > 0 && t.sets.(t.last) == set then t.last
  else
    let g = find_physical t.sets (Stdlib.min t.count physical_probes) set 0 in
    if g >= 0 then begin
      t.last <- g;
      g
    end
    else probe t set (Bitset.hash set land (Array.length t.slots - 1))

(* A loop over a fresh int array, not [Array.map]: the generic map
   stores every index through [caml_modify]. *)
let intern_all sets =
  let t = create () in
  let group_of = Array.make (Array.length sets) 0 in
  for j = 0 to Array.length sets - 1 do
    group_of.(j) <- intern t sets.(j)
  done;
  (t, group_of)

(* A counting sort of [order] by set. *)
let members t group_of ~order =
  let first = Array.make (t.count + 1) 0 in
  Array.iter (fun g -> first.(g + 1) <- first.(g + 1) + 1) group_of;
  for g = 1 to t.count do
    first.(g) <- first.(g) + first.(g - 1)
  done;
  let fill = Array.sub first 0 t.count in
  let members = Array.make (Array.length order) 0 in
  Array.iter
    (fun j ->
      let g = group_of.(j) in
      members.(fill.(g)) <- j;
      fill.(g) <- fill.(g) + 1)
    order;
  (first, members)
