type t = Xoshiro256.t

let create ?(seed = 0x5EED) () = Xoshiro256.create (Int64.of_int seed)

let split x =
  let child = Xoshiro256.copy x in
  Xoshiro256.jump child;
  (* Also advance the parent so repeated splits yield distinct streams. *)
  ignore (Xoshiro256.next x);
  Xoshiro256.create (Xoshiro256.next child)

(* A uniform float in [[0, 1)] from the top 53 bits of the generator's
   output, read as the top 53 of the 62 bits [next_bits] returns: an
   int, which crosses the module boundary unboxed. *)
let two_pow_minus_53 = 1.0 /. 9007199254740992.0

let[@inline] unit_float t =
  float_of_int (Xoshiro256.next_bits t lsr 9) *. two_pow_minus_53

let float t = unit_float t

let float_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  lo +. ((hi -. lo) *. unit_float t)

(* [float_range] inlined into one loop: no float crosses a call, so
   the fill allocates nothing. *)
let fill_range t a ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  for j = 0 to Array.length a - 1 do
    a.(j) <- lo +. ((hi -. lo) *. unit_float t)
  done

(* Rejection sampling over the top bits to avoid modulo bias. The mask
   is the smallest all-ones value, at least 1, covering [bound - 1]:
   the high bit of [bound - 1] smeared into every lower bit. *)
let mask_for bound =
  let x = bound - 1 in
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  if x < 1 then 1 else x

let rec draw t ~mask bound =
  let bits = Xoshiro256.next_bits t land mask in
  if bits < bound then bits else draw t ~mask bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  draw t ~mask:(mask_for bound) bound

let bernoulli t ~p = unit_float t < p
