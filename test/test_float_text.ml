(* Float_text against the C primitives it stands in for: its [%.17g]
   must be [caml_format_float "%.17g"] byte for byte, and whenever its
   parser decides a field, the float must be [float_of_string]'s, bit
   for bit. Each property draws a seed and checks a thousand values from
   it, so a run covers over a million floats in a few seconds. *)

module Float_text = Usched_report.Float_text

let printf17 x = Printf.sprintf "%.17g" x

let g17 x =
  let b = Buffer.create 32 in
  Float_text.add_g17 b [| x |] 0;
  Buffer.contents b

let same_as_printf x = Float.is_nan x || g17 x = printf17 x

(* A thousand floats from [seed], each checked by [ok]. *)
let batch name ~count draw ok =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rec go k =
        k = 0
        ||
        let x = draw rng in
        if ok x then go (k - 1) else QCheck.Test.fail_reportf "%h (%S)" x (printf17 x)
      in
      go 1000)

let random_bits rng = Int64.float_of_bits (Random.State.bits64 rng)

(* Spread over every exponent [%.17g] prints without one, and past both
   ends of that range. *)
let fixed_range rng =
  let x =
    Random.State.float rng 1.0 *. (10.0 ** float_of_int (Random.State.int rng 25 - 6))
  in
  if Random.State.bool rng then -.x else x

let prop_bits = batch "writer = %.17g on random bit patterns" ~count:1000 random_bits same_as_printf

let prop_fixed_range =
  batch "writer = %.17g across the fixed-notation range" ~count:300 fixed_range
    same_as_printf

(* Every power of ten the fast path can meet, and past it, 2000 ulps
   either side: the exponent's edge cases and the rounding up to
   10^17. *)
let powers_of_ten () =
  for e = -7 to 18 do
    let p = float_of_string (Printf.sprintf "1e%d" e) in
    let up = ref p and down = ref p in
    for _ = 0 to 2000 do
      List.iter
        (fun x -> if not (same_as_printf x) then Alcotest.failf "%h: %s, printf %s" x (g17 x) (printf17 x))
        [ !up; !down; -. !up ];
      up := Float.succ !up;
      down := Float.pred !down
    done
  done

(* Exact ties at the 17th digit: x * 10^(16 - X) ends in exactly .5,
   which [%.17g] rounds to even. That holds for [x = odd / 2^(j+1)]
   with [X = 16 - j], as [10^j / 2^(j+1) = 5^j / 2]. *)
let exact_ties () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun (j, near) ->
      let denominator = Float.ldexp 1.0 (j + 1) in
      let low = int_of_float (near *. denominator /. 2.0) in
      for _ = 1 to 20_000 do
        let odd = (2 * (low + Random.State.int rng 1_000_000)) + 1 in
        let x = float_of_int odd /. denominator in
        if not (same_as_printf x) then
          Alcotest.failf "%h: %s, printf %s" x (g17 x) (printf17 x)
      done)
    [ (1, 1.2e15); (2, 3e14); (3, 2e13); (17, 0.3) ]

let ints () =
  List.iter
    (fun i ->
      let b = Buffer.create 24 in
      Float_text.add_int b i;
      Alcotest.(check string) (string_of_int i) (string_of_int i) (Buffer.contents b))
    [ 0; 1; 9; 10; 99; 100; 123_456_789; -1; -10; -987_654; max_int; min_int; min_int + 1 ]

(* The parser decides a field exactly or leaves it alone. *)
let parses_like_float_of_string s =
  let sentinel = -42.0 in
  let column = [| sentinel |] in
  if Float_text.parse_into s 0 (String.length s) column 0 then
    Int64.equal (Int64.bits_of_float column.(0)) (Int64.bits_of_float (float_of_string s))
  else Int64.equal (Int64.bits_of_float column.(0)) (Int64.bits_of_float sentinel)

(* One to nineteen random digits with the point anywhere (or nowhere,
   or dangling), some led by zeros. *)
let random_decimal rng =
  let digits = 1 + Random.State.int rng 19 in
  let body =
    String.init digits (fun k ->
        if k < Random.State.int rng 3 then '0' else Char.chr (48 + Random.State.int rng 10))
  in
  match Random.State.int rng (digits + 2) with
  | 0 -> body
  | p when p > digits -> body ^ "."
  | p -> String.sub body 0 p ^ "." ^ String.sub body p (digits - p)

let prop_decimals =
  QCheck.Test.make ~name:"parser = float_of_string on 1-19 digit decimals" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all parses_like_float_of_string (List.init 1000 (fun _ -> random_decimal rng)))

let prop_printed =
  QCheck.Test.make ~name:"parser = float_of_string on %.15g, %.16g and %.17g" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          let x = if Random.State.bool rng then random_bits rng else Float.abs (fixed_range rng) in
          List.for_all parses_like_float_of_string
            [ Printf.sprintf "%.15g" x; Printf.sprintf "%.16g" x; printf17 x ])
        (List.init 300 Fun.id))

(* What the writer prints, the parser decides: at most 1 field in 1000
   of a fixed sample may fall back (a candidate two ulps off the field's
   value; none is known). *)
let writer_fields_take_the_fast_path () =
  let rng = Random.State.make [| 5 |] in
  let column = [| 0.0 |] and misses = ref 0 and total = 100_000 in
  for _ = 1 to total do
    let s = g17 (Float.abs (fixed_range rng)) in
    if (not (String.contains s 'e')) && not (Float_text.parse_into s 0 (String.length s) column 0)
    then incr misses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d fields fell back" !misses total)
    true
    (!misses * 1000 <= total)

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "float_text"
    [
      ( "writer",
        [
          qtest prop_bits;
          qtest prop_fixed_range;
          Alcotest.test_case "powers of ten +- 2000 ulps" `Quick powers_of_ten;
          Alcotest.test_case "exact ties" `Quick exact_ties;
          Alcotest.test_case "ints" `Quick ints;
        ] );
      ( "parser",
        [
          qtest prop_decimals;
          qtest prop_printed;
          Alcotest.test_case "written fields take the fast path" `Quick
            writer_fields_take_the_fast_path;
        ] );
    ]
