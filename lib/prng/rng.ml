type t = Xoshiro256.t

let create ?(seed = 0x5EED) () = Xoshiro256.create (Int64.of_int seed)
let int64 = Xoshiro256.next

let split x =
  let child = Xoshiro256.copy x in
  Xoshiro256.jump child;
  (* Also advance the parent so repeated splits yield distinct streams. *)
  ignore (Xoshiro256.next x);
  Xoshiro256.create (Xoshiro256.next child)

let float = Xoshiro256.next_float

let float_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling over the top bits to avoid modulo bias. *)
  let mask =
    let rec grow m = if m >= bound - 1 then m else grow ((m * 2) + 1) in
    grow 1
  in
  let rec draw () =
    let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 2) land mask in
    if bits < bound then bits else draw ()
  in
  draw ()

let bernoulli t ~p = float t < p
