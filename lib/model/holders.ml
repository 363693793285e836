type t = { table : Set_table.t; index : int array }

let of_sets sets =
  let table, index = Set_table.intern_all sets in
  { table; index }

(* [relabel.(l)] is label [l]'s index once a task has used it: a set is
   interned at its first use, in task order, as [intern_all] would meet
   it. *)
let of_labels sets labels =
  let table = Set_table.create () in
  let relabel = Array.make (Array.length sets) (-1) in
  for j = 0 to Array.length labels - 1 do
    let l = labels.(j) in
    if l < 0 || l >= Array.length sets then
      invalid_arg (Printf.sprintf "Holders.of_labels: task %d has label %d" j l);
    let g = relabel.(l) in
    let g =
      if g >= 0 then g
      else begin
        let g = Set_table.intern table sets.(l) in
        relabel.(l) <- g;
        g
      end
    in
    if g <> l then labels.(j) <- g
  done;
  { table; index = labels }

let n t = Array.length t.index

let set t j = Set_table.get t.table t.index.(j)
let copy t = { table = Set_table.copy t.table; index = Array.copy t.index }

(* Once per distinct set: every interned set has a task, and the scan
   for the first task runs only when one fails. *)
let first_misplaced ~m t =
  let bad g =
    let set = Set_table.get t.table g in
    Bitset.capacity set <> m || Bitset.is_empty set
  in
  let rec any_bad g = g < Set_table.count t.table && (bad g || any_bad (g + 1)) in
  let rec first j = if bad t.index.(j) then j else first (j + 1) in
  if any_bad 0 then Some (first 0) else None
