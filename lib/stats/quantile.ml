let interpolate sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let check_q q =
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile: q out of [0, 1]"

(* NaN-checked sorted copy. Polymorphic [compare] would box every
   element and order NaN inconsistently; [Float.compare] keeps the sort
   unboxed, and rejecting NaN up front keeps interpolation total. *)
let sorted_copy a =
  if Array.length a = 0 then invalid_arg "Quantile: empty sample";
  Array.iter
    (fun v -> if Float.is_nan v then invalid_arg "Quantile: NaN in sample")
    a;
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  sorted

let quantile a ~q =
  check_q q;
  interpolate (sorted_copy a) q

let quantiles a ~qs =
  Array.iter check_q qs;
  let sorted = sorted_copy a in
  Array.map (fun q -> interpolate sorted q) qs

let median a = quantile a ~q:0.5

let quartiles a =
  match quantiles a ~qs:[| 0.25; 0.5; 0.75 |] with
  | [| q1; q2; q3 |] -> (q1, q2, q3)
  | _ -> assert false
