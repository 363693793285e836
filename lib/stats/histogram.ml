type t = { lo : float; hi : float; counts : int array }

(* NaN anywhere poisons the whole histogram silently: it folds into
   [lo]/[hi] (every NaN comparison is false) and [int_of_float nan] is
   0, so NaN samples would land in bin 0 as if they were data. Reject it
   up front, same idiom as [Quantile]. *)
let of_data ?(bins = 10) data =
  if bins <= 0 then invalid_arg "Histogram.of_data: bins <= 0";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Histogram.of_data: NaN sample")
    data;
  let lo, hi =
    if Array.length data = 0 then (0.0, 1.0)
    else
      let lo = Array.fold_left Float.min infinity data in
      let hi = Array.fold_left Float.max neg_infinity data in
      (lo, if hi > lo then hi else lo +. 1.0)
  in
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      (* x in [lo, hi]: the quotient is mathematically < bins except at
         x = hi; clamp covers both the endpoint and float round-up. *)
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1)
    data;
  { lo; hi; counts }

(* Bin [i] covers [[lo, hi)], the last one also [hi]. *)
let bin_range t i =
  let width = (t.hi -. t.lo) /. float_of_int (Array.length t.counts) in
  (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

let pp ppf t =
  let widest = Array.fold_left Stdlib.max 1 t.counts in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_range t i in
      let bar = String.make (c * 40 / widest) '#' in
      Format.fprintf ppf "[%10.4g, %10.4g) %6d %s@." lo hi c bar)
    t.counts
