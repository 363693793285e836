(* for-loops throughout, not [Array.iter]/[fold_left]: the generic
   combinators box every float element they hand to the closure, and
   these run over million-task arrays inside the multifit bisection. *)
let check m (p : float array) =
  if m < 1 then invalid_arg "Lower_bounds: m must be >= 1";
  for k = 0 to Array.length p - 1 do
    if p.(k) < 0.0 then invalid_arg "Lower_bounds: negative time"
  done

let sum_over_m ~m (p : float array) =
  let sum = Array.make 1 0.0 in
  for k = 0 to Array.length p - 1 do
    sum.(0) <- sum.(0) +. p.(k)
  done;
  sum.(0) /. float_of_int m

let average ~m p =
  check m p;
  sum_over_m ~m p

let largest (p : float array) =
  let best = Array.make 1 0.0 in
  for k = 0 to Array.length p - 1 do
    if p.(k) > best.(0) then best.(0) <- p.(k)
  done;
  best.(0)

let sorted_packing ~m p =
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

let packing ~m p =
  check m p;
  sorted_packing ~m p

(* A ceiling on what [sorted_packing ~m p] returns, from a histogram
   instead of a sorted copy; [l] is [largest p], and every time is
   finite and non-negative.

   Keys are a time's bit pattern shifted right by one: for non-negative
   floats the pattern is monotone in the value, and the shift keeps the
   key inside a non-negative [int]. The buckets are [2^shift] keys wide
   from the least key up, at most [max 2 (min 2^14 (n/8))] of them, so
   the histogram is at most an eighth of the copy it replaces. Candidate
   [k] sums the times of descending ranks [k·m − k] to [k·m] (0-based),
   each at most the upper edge [u_k] of the bucket holding rank
   [k·m − k]; the ranks grow with [k], so one walk down from the top
   bucket finds every edge.

   Rounding: the sort path's prefix sums are recursive sums of at most
   n terms, each within [γ_n·n·l] of its exact value (γ_n = nu/(1−nu),
   u = 2⁻⁵³), so its candidate [k] is at most
   (1+u)·((k+1)·u_k + 2·γ_n·n·l). The products and sums below round a
   few times more, and the final factor (1 + 2⁻⁴⁸) covers all of it.
   The absolute term covers the products' underflow on subnormal
   times. A total [4·n·l] that overflows returns [infinity]: nothing
   is certified where a prefix sum could overflow. *)
let[@inline] key x = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 1)

(* The largest float whose key is [k]. *)
let[@inline] top_of_key k =
  Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int k) 1) 1L)

let packing_ceiling_of ~m ~l (p : float array) =
  let n = Array.length p in
  if n <= m then 0.0
  else if not (Float.is_finite (4.0 *. float_of_int n *. l)) then infinity
  else begin
    (* [Float.abs] maps -0.0, the one negative time [check] lets
       through, to the key of 0.0. *)
    let low = Array.make 1 l in
    for j = 0 to n - 1 do
      if p.(j) < low.(0) then low.(0) <- p.(j)
    done;
    let kmin = key (Float.abs low.(0)) and kmax = key l in
    let span = kmax - kmin in
    let limit = Stdlib.max 2 (Stdlib.min 16384 (n / 8)) in
    let shift = ref 0 in
    while span lsr !shift >= limit do
      incr shift
    done;
    let shift = !shift in
    let buckets = (span lsr shift) + 1 in
    let hist = Array.make buckets 0 in
    for j = 0 to n - 1 do
      let b = (key (Float.abs p.(j)) - kmin) lsr shift in
      hist.(b) <- hist.(b) + 1
    done;
    (* [above]: how many times sit in bucket [b] or higher. *)
    let b = ref (buckets - 1) and above = ref hist.(buckets - 1) in
    let worst = Array.make 1 0.0 in
    let k = ref 1 in
    while (!k * m) + 1 <= n do
      let rank = (!k * m) - !k in
      while !above <= rank do
        decr b;
        above := !above + hist.(!b)
      done;
      let lo = kmin + (!b lsl shift) in
      let edge = lo + Stdlib.min (kmax - lo) ((1 lsl shift) - 1) in
      let candidate = float_of_int (!k + 1) *. Float.min l (top_of_key edge) in
      if candidate > worst.(0) then worst.(0) <- candidate;
      incr k
    done;
    let nu = float_of_int n *. 0x1p-53 in
    let gamma = nu /. (1.0 -. nu) in
    ((worst.(0) +. (2.0 *. gamma *. float_of_int n *. l)) *. (1.0 +. 0x1p-48))
    +. 0x1p-1070
  end

let packing_ceiling ~m p =
  check m p;
  if Float.is_finite (sum_over_m ~m p) then packing_ceiling_of ~m ~l:(largest p) p
  else infinity

(* [Float.max a (Float.max l packing)] is [Float.max a l] whenever
   packing is at most [max a l]: all three are non-negative and not
   NaN once the average is finite. A NaN or infinite time makes the
   average NaN or infinite, and the sort decides. *)
let best ~m p =
  check m p;
  let a = sum_over_m ~m p and l = largest p in
  let trivial = Float.max a l in
  if Float.is_finite a && packing_ceiling_of ~m ~l p <= trivial then trivial
  else Float.max a (Float.max l (sorted_packing ~m p))
