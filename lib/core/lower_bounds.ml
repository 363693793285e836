(* for-loops throughout, not [Array.iter]/[fold_left]: the generic
   combinators box every float element they hand to the closure, and
   these run over million-task arrays inside the multifit bisection. *)
let check m (p : float array) =
  if m < 1 then invalid_arg "Lower_bounds: m must be >= 1";
  for k = 0 to Array.length p - 1 do
    if p.(k) < 0.0 then invalid_arg "Lower_bounds: negative time"
  done

let average ~m (p : float array) =
  check m p;
  let sum = Array.make 1 0.0 in
  for k = 0 to Array.length p - 1 do
    sum.(0) <- sum.(0) +. p.(k)
  done;
  sum.(0) /. float_of_int m

let largest (p : float array) =
  let best = Array.make 1 0.0 in
  for k = 0 to Array.length p - 1 do
    if p.(k) > best.(0) then best.(0) <- p.(k)
  done;
  best.(0)

let packing ~m p =
  check m p;
  let n = Array.length p in
  if n <= m then 0.0
  else begin
    let sorted = Array.copy p in
    Fsort.descending sorted;
    (* Running sums in place: sorted.(i) becomes the sum of the i + 1
       largest tasks, added in the same order as a separate prefix
       array starting from 0.0 would. *)
    for i = 1 to n - 1 do
      sorted.(i) <- sorted.(i - 1) +. sorted.(i)
    done;
    let bound = ref 0.0 in
    let k = ref 1 in
    while (!k * m) + 1 <= n do
      let top = (!k * m) + 1 and rest = (!k * m) - !k in
      (* Sum of the (k+1) smallest among the [top] largest: the sum of
         the [top] largest minus that of the [rest] largest. *)
      let candidate =
        sorted.(top - 1) -. if rest = 0 then 0.0 else sorted.(rest - 1)
      in
      if candidate > !bound then bound := candidate;
      incr k
    done;
    !bound
  end

let best ~m p =
  check m p;
  Float.max (average ~m p) (Float.max (largest p) (packing ~m p))
