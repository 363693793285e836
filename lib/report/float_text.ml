(* Decimal text of floats and ints, written straight into a [Buffer] and
   read straight out of a string, with integer arithmetic on exact
   products instead of libc's printf and strtod. DESIGN.md ("Float
   text") gives the exactness arguments; in short:

   - For a finite x whose [%.17g] has decimal exponent X in [-4, 16],
     the exact product |x| * 10^(16 - X) lies in [10^16, 10^17). With
     10^p an exact double (p <= 22), [Float.fma] splits it into
     hi + lo exactly (TwoProduct). hi >= 10^16 > 2^53 is an integer, so
     the 17 digits are hi plus the half-even rounding of lo.
   - A plain [digits[.digits]] field is fl(D / 10^q) by Clinger's rule
     when D < 2^53 and q <= 22; otherwise one of the three floats
     around fl(fl(D) / 10^q) whose 17 digits spell the field is, by the
     17-digit round-trip theorem, what [float_of_string] returns.

   Everything outside those ranges goes to [format_float] (the C
   primitive behind [Printf]'s [%g]) or back to the caller. *)

external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k in [0, 22], every one an exact double. The constants of a
   [match] are static data, where an array would be a block on the heap
   from start-up on. *)
let[@inline] pow10 k =
  match k with
  | 0 -> 1e0 | 1 -> 1e1 | 2 -> 1e2 | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6
  | 7 -> 1e7 | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | 12 -> 1e12
  | 13 -> 1e13 | 14 -> 1e14 | 15 -> 1e15 | 16 -> 1e16 | 17 -> 1e17 | 18 -> 1e18
  | 19 -> 1e19 | 20 -> 1e20 | 21 -> 1e21 | _ -> 1e22

let digit d = Char.unsafe_chr (48 + d)

(* The [k] lowest decimal digits of [d >= 0], leading zeros included,
   with a '.' after the first [point] of them when [0 < point < k]. *)
let rec add_digits buf d k point =
  if k > 1 then add_digits buf (d / 10) (k - 1) point;
  if k - 1 = point && point > 0 then Buffer.add_char buf '.';
  Buffer.add_char buf (digit (d mod 10))

let rec add_natural buf i =
  if i >= 10 then add_natural buf (i / 10);
  Buffer.add_char buf (digit (i mod 10))

let add_int buf i =
  if i >= 0 then add_natural buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_natural buf (-i)
  end

(* The packed 17-digit decimal of |x| (see the interface), or [-1]. *)
let[@inline] decimal17 x =
  let a = Float.abs x in
  if a = 0.0 then 5
  else if not (a >= 1e-5 && a < 1e17) then -1
  else begin
    (* a = m * 2^e2 with m in [1, 2), so floor (log10 a) is g or g + 1
       for g = floor (e2 * log10 2); [78913 / 2^18] is log10 2 to well
       within what |e2| <= 57 needs. *)
    let e2 =
      (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) land 0x7ff)
      - 1023
    in
    let g = (e2 * 78913) asr 18 in
    (* The exponent X with 10^X <= a < 10^(X+1): an exact comparison
       when 10^(g+1) is in the table, else the larger candidate, lowered
       below when the product falls short of 10^16. *)
    let x = if g + 1 >= 0 && a < pow10 (g + 1) then g else g + 1 in
    let scale = pow10 (16 - x) in
    let hi = a *. scale in
    let lo = Float.fma a scale (-.hi) in
    let low = hi < 1e16 || (hi = 1e16 && lo < 0.0) in
    let x = if low then x - 1 else x in
    let scale = if low then pow10 (16 - x) else scale in
    let hi = if low then a *. scale else hi in
    let lo = if low then Float.fma a scale (-.hi) else lo in
    (* hi + lo = a * 10^(16 - x) in [10^16, 10^17) exactly; hi is an
       integer and |lo| <= 8. *)
    let c = Float.to_int hi + Float.to_int lo in
    let frac = lo -. Float.of_int (Float.to_int lo) in
    let d =
      if frac > 0.5 then c + 1
      else if frac < -0.5 then c - 1
      else if (frac = 0.5 || frac = -0.5) && c land 1 = 1 then
        if frac > 0.0 then c + 1 else c - 1
      else c
    in
    (* Rounding up to 10^17 moves the exponent. *)
    if d = 100_000_000_000_000_000 then
      if x + 1 > 16 then -1 else (10_000_000_000_000_000 lsl 5) lor (x + 6)
    else if x < -4 then -1
    else (d lsl 5) lor (x + 5)
  end

let add_fixed buf ~negative d ~precision ~exp =
  if negative then Buffer.add_char buf '-';
  (* [%g] strips the fraction's trailing zeros, and the point with them. *)
  let keep = if exp >= 0 then exp + 1 else 1 in
  let d = ref d and k = ref precision in
  while !k > keep && !d mod 10 = 0 do
    d := !d / 10;
    decr k
  done;
  if exp >= 0 then add_digits buf !d !k (exp + 1)
  else begin
    Buffer.add_string buf "0.";
    for _ = 2 to -exp do
      Buffer.add_char buf '0'
    done;
    add_digits buf !d !k 0
  end

(* An integral float below 2^53 prints its int's digits (at most 16, so
   no exponent and no point); [-0.0] prints as ["-0"] below. *)
let add_g17 buf column j =
  let x = column.(j) in
  if Float.abs x < 0x1p53 && Float.of_int (Float.to_int x) = x && not (x = 0.0 && Float.sign_bit x)
  then add_int buf (Float.to_int x)
  else
    let p = decimal17 x in
    if p < 0 then Buffer.add_string buf (format_float "%.17g" x)
    else
      add_fixed buf ~negative:(Float.sign_bit x) (p lsr 5) ~precision:17
        ~exp:((p land 31) - 5)

let decimal_equals d e x =
  let v =
    if e >= 0 then Float.of_int d *. pow10 e
    else Float.of_int d /. pow10 (-e)
  in
  v = Float.abs x

(* The decimal whose significant digits are [d] ([n] of them, at most
   17, leading zeros dropped) with [q] digits after the point. *)
let store_decimal d n q column j =
  if q > 22 then false
  else if d < 1 lsl 53 then begin
    Array.unsafe_set column j (Float.of_int d /. pow10 q);
    true
  end
  else
    (* n >= 16 here. The field spells D * 10^(17 - n) at exponent
       n - 1 - q, which is what [decimal17] returns for the float it
       denotes. *)
    let exp = n - 1 - q in
    if exp < -4 || exp > 16 then false
    else
      let want = ((if n = 16 then d * 10 else d) lsl 5) lor (exp + 5) in
      let y = Float.of_int d /. pow10 q in
      if decimal17 y = want then begin
        Array.unsafe_set column j y;
        true
      end
      else
        let up = Float.succ y in
        if decimal17 up = want then begin
          Array.unsafe_set column j up;
          true
        end
        else
          let down = Float.pred y in
          if decimal17 down = want then begin
            Array.unsafe_set column j down;
            true
          end
          else false

(* A field [I[.F]] of ASCII digits, I and (when the point is there) F
   non-empty: its significant digits D (leading zeros dropped), their
   count and the count q of digits after the point. *)
let parse_into text start stop column j =
  let d = ref 0 and sig_digits = ref 0 and q = ref (-1) and ok = ref (stop > start) in
  let i = ref start in
  while !ok && !i < stop do
    (match String.unsafe_get text !i with
    | '0' .. '9' as c ->
        if !q >= 0 then incr q;
        if !sig_digits > 0 || c <> '0' then begin
          incr sig_digits;
          if !sig_digits > 17 then ok := false
          else d := (!d * 10) + Char.code c - 48
        end
    | '.' when !q < 0 && !i > start -> q := 0
    | _ -> ok := false);
    incr i
  done;
  (* A point must be followed by a digit. *)
  if not !ok || (!q = 0 && String.unsafe_get text (stop - 1) = '.') then false
  else store_decimal !d !sig_digits (if !q < 0 then 0 else !q) column j
