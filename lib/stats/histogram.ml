type t = {
  lo : float;
  hi : float;
  counts : int array;
  underflow : int;
  overflow : int;
}

(* NaN anywhere poisons the whole histogram silently: [of_data] folds it
   into [lo]/[hi] (NaN range sails past the [lo >= hi] guard because
   every NaN comparison is false) and [bin_of]'s [int_of_float nan] is 0,
   so NaN samples land in bin 0 as if they were data. Reject it up
   front, same idiom as [Quantile]. *)
let check_bound name v =
  if Float.is_nan v then invalid_arg ("Histogram.create: " ^ name ^ " is NaN")

let create ?(bins = 10) ~lo ~hi data =
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  check_bound "lo" lo;
  check_bound "hi" hi;
  if lo >= hi then invalid_arg "Histogram.create: lo >= hi";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let underflow = ref 0 and overflow = ref 0 in
  let observe x =
    if Float.is_nan x then invalid_arg "Histogram.create: NaN sample"
    else if x < lo then incr underflow
    else if x > hi then incr overflow
    else begin
      (* x in [lo, hi]: the quotient is mathematically < bins except at
         x = hi; clamp covers both the endpoint and float round-up. *)
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1
    end
  in
  Array.iter observe data;
  { lo; hi; counts; underflow = !underflow; overflow = !overflow }

let of_data ?(bins = 10) data =
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Histogram.of_data: NaN sample")
    data;
  if Array.length data = 0 then create ~bins ~lo:0.0 ~hi:1.0 data
  else begin
    let lo = Array.fold_left Float.min infinity data in
    let hi = Array.fold_left Float.max neg_infinity data in
    let hi = if hi > lo then hi else lo +. 1.0 in
    create ~bins ~lo ~hi data
  end

let bins t = Array.length t.counts
let counts t = Array.copy t.counts
let total t = Array.fold_left ( + ) 0 t.counts
let overflow t = t.overflow

(* Bin [i] covers [[lo, hi)], the last one also [hi]. *)
let bin_range t i =
  let width = (t.hi -. t.lo) /. float_of_int (bins t) in
  (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

let pp ppf t =
  let widest = Array.fold_left Stdlib.max 1 t.counts in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_range t i in
      let bar = String.make (c * 40 / widest) '#' in
      Format.fprintf ppf "[%10.4g, %10.4g) %6d %s@." lo hi c bar)
    t.counts;
  if t.underflow > 0 || t.overflow > 0 then
    Format.fprintf ppf "out of range: %d below, %d above@." t.underflow
      t.overflow
