(* Float_text against the C primitives it stands in for: its [%.17g]
   must be [Printf.sprintf "%.17g"] byte for byte, its ints
   [string_of_int], its JSON floats the printf-and-strtod rule, and
   whenever its parser decides a field, the float must be
   [float_of_string]'s, bit for bit. Each batch property draws a seed
   and checks a thousand values from it, so a run covers over a million
   floats in a few seconds. Every writer writes into bytes holding
   exactly [Float_text.room] bytes from its start, at an odd offset, so
   a store past that room fails the test. *)

module Float_text = Usched_report.Float_text

let printf17 x = Printf.sprintf "%.17g" x

(* What [write] renders, written at byte 3 of a buffer with exactly
   [Float_text.room] bytes after it. *)
let render write =
  let b = Bytes.make (3 + Float_text.room) '#' in
  let stop = write b 3 in
  Bytes.sub_string b 3 (stop - 3)

let g17 x = render (fun b p -> Float_text.write_g17 b p [| x |] 0)
let int_text i = render (fun b p -> Float_text.write_int b p i)
let json_float x = render (fun b p -> Float_text.write_json_float b p [| x |] 0)
let same_as_printf x = g17 x = printf17 x

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

(* The %.17g corners, each with both signs: zero, the integral fast
   path's edge at 2^53, both sides of the fixed-notation range's ends
   (1e-5 and 1e17) and of 1e16, 17 nines that round up to 10^17 or
   past it, subnormals, the extremes, infinity and nan. *)
let g17_corners =
  let around x = [ Float.pred x; x; Float.succ x ] in
  List.concat
    [
      [ 0.0; infinity; nan; Float.max_float; Float.min_float; 5e-324; 1e-310 ];
      [ Float.pred Float.min_float; 0x1p53 -. 1.0; 0x1p53 +. 2.0 ];
      around 0x1p53;
      around 1e-5;
      around 1e16;
      around 1e17;
      [ 99999999999999999.0; 9.9999999999999999e-5; 0.99999999999999999; 9.99999999999999999 ];
      [ 99999999999999990.0; 9.9999999999999995e16; 9.999999999999999e-6 ];
    ]

let g17_corner_cases () =
  List.iter
    (fun x ->
      List.iter
        (fun x -> Alcotest.(check string) (Printf.sprintf "%h" x) (printf17 x) (g17 x))
        [ x; -.x ])
    g17_corners

let qcheck_float_of_bits =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(map Int64.float_of_bits int64)

let prop_g17_bits =
  QCheck.Test.make ~name:"write_g17 = Printf %.17g on random 64-bit patterns" ~count:20_000
    qcheck_float_of_bits same_as_printf

(* The ints around every digit count: 10^k and 10^k - 1 for k <= 18,
   their negations, and the extremes. *)
let int_corners =
  let rec powers k p acc = if k > 18 then acc else powers (k + 1) (p * 10) (p :: (p - 1) :: acc) in
  let ps = powers 0 1 [] in
  [ min_int; min_int + 1; max_int; max_int - 1 ] @ ps @ List.map (fun p -> -p) ps

let int_corner_cases () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (string_of_int i) (int_text i))
    int_corners

let prop_ints =
  QCheck.Test.make ~name:"write_int = string_of_int" ~count:20_000
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [
              int;
              map (fun (k, x) -> x asr k) (pair (int_bound 62) int);
              int_range (-1_000_000) 1_000_000;
            ]))
    (fun i -> int_text i = string_of_int i)

(* The JSON float rule: twelve significant digits when they read back,
   else seventeen; [null] for what JSON cannot encode. *)
let json_rule x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else printf17 x

let json_corner_cases () =
  List.iter
    (fun x -> Alcotest.(check string) (Printf.sprintf "%h" x) (json_rule x) (json_float x))
    (List.concat_map
       (fun x -> [ x; -.x ])
       (g17_corners @ [ 0.1; 1. /. 3.; 123456789012.0; 999999999999.5; 1e12; 1e-4; 0.5e-4 ]))

let prop_json_bits =
  QCheck.Test.make ~name:"write_json_float = the %.12g-then-%.17g rule on random bits"
    ~count:20_000 qcheck_float_of_bits (fun x -> json_float x = json_rule x)

let prop_json_fixed_range =
  QCheck.Test.make ~name:"write_json_float = the %.12g-then-%.17g rule across the fixed range"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          (* Twelve-digit decimals nudged a few ulps, and plain draws. *)
          let x = fixed_range rng in
          let x =
            if Random.State.bool rng then x
            else
              let d = 100_000_000_000 + Random.State.full_int rng 900_000_000_000 in
              let f = ref (float_of_string (Printf.sprintf "%de%d" d (Random.State.int rng 24 - 17))) in
              for _ = 1 to Random.State.int rng 20 do
                f := Float.succ !f
              done;
              !f
          in
          json_float x = json_rule x)
        (List.init 300 Fun.id))

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
          Alcotest.test_case "%.17g corners" `Quick g17_corner_cases;
          qtest prop_g17_bits;
        ] );
      ( "int writer",
        [ Alcotest.test_case "digit-count edges" `Quick int_corner_cases; qtest prop_ints ] );
      ( "json float writer",
        [
          Alcotest.test_case "corners" `Quick json_corner_cases;
          qtest prop_json_bits;
          qtest prop_json_fixed_range;
        ] );
      ( "parser",
        [
          qtest prop_decimals;
          qtest prop_printed;
          Alcotest.test_case "written fields take the fast path" `Quick
            writer_fields_take_the_fast_path;
        ] );
    ]
