(* Decimal text of floats and ints, written straight into bytes and
   read straight out of a string, with integer arithmetic on exact
   products instead of libc's printf and strtod. DESIGN.md ("Float
   text") gives the exactness arguments; in short:

   - For a finite x whose [%.17g] has decimal exponent X in [-4, 16],
     the exact product |x| * 10^(16 - X) lies in [10^16, 10^17). With
     10^p an exact double (p <= 22), [Float.fma] splits it into
     hi + lo exactly (TwoProduct). hi >= 10^16 > 2^53 is an integer, so
     the 17 digits are hi plus the half-even rounding of lo.
   - Those digits reach the bytes eight at a time: [digits8] builds the
     eight ASCII digits of a number below 10^8 in one int with a few
     multiplies and masks, and one 64-bit store writes them.
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

(* The exactly rounded (half even) 17 significant digits [d] and
   decimal exponent [e] of [|x|], as [(d lsl 5) lor (e + 5)], when
   [%.17g] prints [x] without an exponent (that is, [e] in [-4, 16]);
   [-1] otherwise (non-finite, below [1e-5] or from [1e17] on). [d] is
   in [10^16, 10^17), so [|x| ~ d * 10^(e - 16)]; zero gives [d = 0],
   [e = 0]. *)
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

(* ------------------------- writers ---------------------------------- *)

let room = 32

(* The eight ASCII digits of [v] in [0, 10^8), leading zeros included,
   as the bytes of one int in memory order (the first digit lowest).
   SWAR: [v] splits into two 4-digit halves in 32-bit lanes, each half
   into two 2-digit quarters in 16-bit lanes, each quarter into its two
   digits in bytes. A quotient by 100 is [(y * 10486) lsr 20] and by 10
   [(y * 103) lsr 10], exact for y < 10^4 and y < 10^2; the masks drop
   the fraction bits each lane's product leaves below the next lane's
   quotient. No product reaches 2^62, so nothing overflows OCaml's
   63-bit int (DESIGN.md, "Float text", has the bounds). *)
let[@inline] digits8 v =
  let hi = v / 10_000 in
  let halves = hi lor ((v - (hi * 10_000)) lsl 32) in
  let q100 = ((halves * 10486) lsr 20) land 0x7F_0000_007F in
  let quarters = ((halves - (100 * q100)) lsl 16) + q100 in
  let q10 = ((quarters * 103) lsr 10) land 0x000F_000F_000F_000F in
  q10 + ((quarters - (10 * q10)) lsl 8) + 0x3030_3030_3030_3030

let[@inline] put_word b p word = Bytes.set_int64_le b p (Int64.of_int word)

(* The [k] lowest digits of [v < 10^k], [k] in [1, 8], at [p]: the
   word's leading zeros shift out, and the store writes 8 bytes, so
   [b] needs room for 8 from [p] on. *)
let[@inline] put_short b p v k = put_word b p (digits8 v lsr (8 * (8 - k)))

(* The [k] lowest digits of [d >= 0], [d < 10^k], [k] in [1, 24],
   leading zeros included, at [p .. p + k - 1]; with [k < 8] the store
   runs on to [p + 7]. *)
let put_digits b p d k =
  if k <= 8 then put_short b p d k
  else if k <= 16 then begin
    let hi = d / 100_000_000 in
    put_short b p hi (k - 8);
    put_word b (p + k - 8) (digits8 (d - (hi * 100_000_000)))
  end
  else begin
    let hi = d / 10_000_000_000_000_000 in
    let rest = d - (hi * 10_000_000_000_000_000) in
    let mid = rest / 100_000_000 in
    (* A [%.17g]'s leading digit needs no word. *)
    if k = 17 then Bytes.set b p (Char.unsafe_chr (48 + hi)) else put_short b p hi (k - 16);
    put_word b (p + k - 16) (digits8 mid);
    put_word b (p + k - 8) (digits8 (rest - (mid * 100_000_000)))
  end

(* The number of decimal digits of [v >= 0]. *)
let rec digit_count v =
  if v < 100_000_000 then
    if v < 10_000 then if v < 100 then if v < 10 then 1 else 2 else if v < 1000 then 3 else 4
    else if v < 1_000_000 then if v < 100_000 then 5 else 6
    else if v < 10_000_000 then 7
    else 8
  else if v < 10_000_000_000_000_000 then 8 + digit_count (v / 100_000_000)
  else 16 + digit_count (v / 10_000_000_000_000_000)

let write_natural b p v =
  let k = digit_count v in
  put_digits b p v k;
  p + k

let write_int b p i =
  if i >= 0 then write_natural b p i
  else begin
    Bytes.set b p '-';
    (* [-min_int] is [min_int]: its last digit goes separately. *)
    if i = min_int then begin
      let p = write_natural b (p + 1) (-(i / 10)) in
      Bytes.set b p (Char.unsafe_chr (48 - (i mod 10)));
      p + 1
    end
    else write_natural b (p + 1) (-i)
  end

let write_string b p s =
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

(* [%g]'s layout of the [precision]-digit decimal [d] at exponent [exp]
   in [-4, precision - 1], a leading '-' when [negative]: for [exp >= 0]
   the digits land one byte right of their place, the first [exp + 1]
   move one byte left, and the point takes the byte they free; for
   [exp < 0], [0.] and [-exp - 1] zeros lead. Then the fraction's
   trailing zeros go, scanned back byte by byte, and a bare point with
   them. *)
let write_fixed b p ~negative d ~precision ~exp =
  let p =
    if negative then begin
      Bytes.set b p '-';
      p + 1
    end
    else p
  in
  let stop =
    if exp >= 0 then begin
      put_digits b (p + 1) d precision;
      for k = p to p + exp do
        Bytes.unsafe_set b k (Bytes.unsafe_get b (k + 1))
      done;
      Bytes.set b (p + exp + 1) '.';
      p + precision + 1
    end
    else begin
      let first = p + 1 - exp in
      Bytes.fill b p (first - p) '0';
      Bytes.set b (p + 1) '.';
      put_digits b first d precision;
      first + precision
    end
  in
  let stop = ref stop in
  while Bytes.unsafe_get b (!stop - 1) = '0' do
    decr stop
  done;
  if Bytes.unsafe_get b (!stop - 1) = '.' then !stop - 1 else !stop

(* An integral float below 2^53 prints its int's digits (at most 16, so
   no exponent and no point); [-0.0] prints as ["-0"] below. *)
let write_g17 b p column j =
  let x = column.(j) in
  if Float.abs x < 0x1p53 && Float.of_int (Float.to_int x) = x && not (x = 0.0 && Float.sign_bit x)
  then write_int b p (Float.to_int x)
  else
    let d = decimal17 x in
    if d < 0 then write_string b p (format_float "%.17g" x)
    else
      write_fixed b p ~negative:(Float.sign_bit x) (d lsr 5) ~precision:17
        ~exp:((d land 31) - 5)

(* The plain rule, with printf and strtod. *)
let shortest_printf x =
  let s12 = format_float "%.12g" x in
  if float_of_string s12 = x then s12 else format_float "%.17g" x

(* Twelve significant digits when they parse back to the same float,
   else seventeen (always exact for binary64), with no printf or strtod
   on the fast path. [decimal17] gives the exact 17 digits D. If the
   twelve-digit candidate round-trips, it lies within half an ulp of
   the float, and D within half a unit of its 17th digit; for a normal
   float half an ulp is under 11.1 such units, so D mod 10^5 sits
   within 11 of a multiple of 10^5. Otherwise D is printed. When it
   does sit there, the twelve digits are D / 10^5 rounded: the exact
   value is within 11.5 units of that multiple, so the rounding has no
   tie and equals rounding the exact value. The candidate round-trips
   iff Clinger's exact rule reads it back: one correctly rounded
   product or quotient of two exact doubles. Zero takes this path with
   D = 0; values [decimal17] leaves out (below 1e-5, from 1e17 on, or
   subnormal) and a candidate [%.12g] prints with an exponent take
   printf and strtod. *)
let write_json_float b p column j =
  let x = column.(j) in
  if not (x -. x = 0.0) then write_string b p "null"
  else
    let packed = decimal17 x in
    if packed < 0 then write_string b p (shortest_printf x)
    else
      let d = packed lsr 5 and exp = (packed land 31) - 5 and negative = Float.sign_bit x in
      let tail = d mod 100_000 in
      if tail > 11 && tail < 99_989 then write_fixed b p ~negative d ~precision:17 ~exp
      else
        let d12 = (d + 50_000) / 100_000 in
        let bumped = d12 = 1_000_000_000_000 in
        let d12 = if bumped then 100_000_000_000 else d12 in
        let exp12 = if bumped then exp + 1 else exp in
        let e = exp12 - 11 in
        let back =
          if e >= 0 then Float.of_int d12 *. pow10 e else Float.of_int d12 /. pow10 (-e)
        in
        if back <> Float.abs x then write_fixed b p ~negative d ~precision:17 ~exp
        else if exp12 <= 11 then write_fixed b p ~negative d12 ~precision:12 ~exp:exp12
        else write_string b p (shortest_printf x)

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
