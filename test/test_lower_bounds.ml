(* Unit and property tests for the optimum lower bounds. *)

module Lb = Usched_core.Lower_bounds
module Opt = Usched_core.Opt

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let average_bound () =
  close "total / m" 2.0 (Lb.average ~m:3 [| 1.0; 2.0; 3.0 |])

let largest_bound () =
  close "max" 3.0 (Lb.largest [| 1.0; 2.0; 3.0 |]);
  close "empty" 0.0 (Lb.largest [||])

let packing_trivial_when_n_le_m () =
  close "no forced pairing" 0.0 (Lb.packing ~m:3 [| 5.0; 5.0; 5.0 |])

let packing_pair_bound () =
  (* m=2, tasks (5,4,3): some machine gets two of them; best pair 4+3. *)
  close "pair" 7.0 (Lb.packing ~m:2 [| 5.0; 4.0; 3.0 |])

let packing_higher_multiplicity () =
  (* m=2, five equal tasks: some machine gets 3 -> bound 3. *)
  close "triple" 3.0 (Lb.packing ~m:2 [| 1.0; 1.0; 1.0; 1.0; 1.0 |])

let best_takes_max () =
  (* avg = 6, largest = 6, packing (m=2, n=3): 3+3=6 -> best 6. *)
  close "max of all" 6.0 (Lb.best ~m:2 [| 6.0; 3.0; 3.0 |]);
  close "dominated by average" 7.0 (Lb.best ~m:1 [| 3.0; 4.0 |]);
  (* largest dominates: one huge task among small ones. *)
  close "dominated by largest" 9.0 (Lb.best ~m:4 [| 9.0; 1.0; 1.0; 1.0 |])

let invalid_inputs () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Lower_bounds: m must be >= 1")
    (fun () -> ignore (Lb.best ~m:0 [| 1.0 |]));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Lower_bounds: negative time") (fun () ->
      ignore (Lb.best ~m:1 [| -1.0 |]))

let prop_sound_vs_exact_optimum =
  QCheck.Test.make ~name:"every bound is below the exact optimum" ~count:300
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_range 1 12) (float_range 0.1 10.0)))
    (fun (m, p) ->
      let p = Array.of_list p in
      let opt = Opt.makespan ~m p in
      Lb.best ~m p <= opt +. 1e-9)

let prop_monotone_in_m =
  QCheck.Test.make ~name:"more machines never raise the bound" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 15) (float_range 0.1 10.0))
    (fun p ->
      let p = Array.of_list p in
      let b2 = Lb.best ~m:2 p and b4 = Lb.best ~m:4 p in
      b4 <= b2 +. 1e-9)

let prop_packing_at_least_largest_pair_when_crowded =
  QCheck.Test.make ~name:"packing bound is tight on identical tasks" ~count:200
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (m, lambda) ->
      (* lambda*m identical unit tasks: packing must reach exactly lambda
         (some machine gets lambda of them). *)
      let p = Array.make (lambda * m) 1.0 in
      let expected = if lambda > 1 then float_of_int lambda else 0.0 in
      Float.abs (Lb.packing ~m p -. expected) < 1e-9)

(* Fsort: the introsort must leave exactly the array the generic sort
   leaves. Elements are compared with [Float.compare] (NaN = NaN), which
   is all either sort can distinguish. *)
module Fsort = Usched_core.Fsort

let oracle_sort a =
  let b = Array.copy a in
  Array.sort (Fun.flip Float.compare) b;
  b

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.compare x y = 0) a b

let specials = [| nan; infinity; neg_infinity; 0.0; 1.0; -1.0 |]

let shaped shape n rng =
  match shape with
  | 0 -> Array.init n (fun _ -> Random.State.float rng 100.0)
  | 1 -> Array.init n (fun _ -> float_of_int (Random.State.int rng 4))
  | 2 -> Array.init n float_of_int
  | 3 -> Array.init n (fun i -> float_of_int (n - i))
  | 4 -> Array.make n 2.5
  | 5 -> Array.init n (fun i -> float_of_int (min i (n - i)))
  | _ ->
      Array.init n (fun _ ->
          if Random.State.int rng 4 = 0 then
            specials.(Random.State.int rng (Array.length specials))
          else Random.State.float rng 10.0)

(* Depth 0 sends every range longer than the insertion cutoff straight
   to the heapsort fallback. Sorting an inner range [lo, hi] checks the
   heap's offset arithmetic: the range matches the generic sort of its
   elements and nothing outside it moves. *)
let heapsort_fallback_matches input =
  let n = Array.length input in
  let whole = Array.copy input in
  if n > 0 then Fsort.introsort whole 0 (n - 1) 0;
  let lo = min 5 (n / 4) and hi = n - 1 - min 7 (n / 4) in
  let inner = Array.copy input in
  if lo <= hi then Fsort.introsort inner lo hi 0;
  let range a = if lo <= hi then Array.sub a lo (hi - lo + 1) else [||] in
  let outside a = Array.append (Array.sub a 0 lo) (Array.sub a (hi + 1) (n - hi - 1)) in
  same_floats whole (oracle_sort input)
  && same_floats (range inner) (oracle_sort (range input))
  && (n = 0 || same_floats (outside inner) (outside input))

let prop_fsort_matches_array_sort =
  QCheck.Test.make
    ~name:
      "Fsort.descending = Array.sort (flip Float.compare): random, duplicates, \
       sorted, reversed, all equal, organ pipe, inf/nan"
    ~count:700
    QCheck.(triple (int_bound 6) (int_bound 3000) int)
    (fun (shape, n, seed) ->
      let input = shaped shape n (Random.State.make [| seed |]) in
      let a = Array.copy input in
      Fsort.descending a;
      same_floats a (oracle_sort input)
      && heapsort_fallback_matches input)

let fsort_small_and_special () =
  List.iter
    (fun input ->
      let a = Array.copy input in
      Fsort.descending a;
      checkb "matches the generic sort" true (same_floats a (oracle_sort input)))
    [
      [||];
      [| 1.0 |];
      [| nan; nan |];
      [| 1.0; nan; 2.0 |];
      [| neg_infinity; nan; infinity; 0.0 |];
      Array.init 40 (fun i -> if i mod 3 = 0 then nan else float_of_int i);
    ]

(* [best] certifies with a histogram and sorts only when it must; it
   must return [Float.max average (Float.max largest packing)] bit for
   bit either way, and raise what that expression raises. Inputs are
   the Fsort shapes (negative times, NaN and infinities included),
   then transformed: -0.0 sprinkled in, scaled into the subnormals,
   scaled by 2^500 or 2^-500, or by 2^±500 per element. The last
   family makes packing win: m+1 copies of one large time among tiny
   ones. *)
let transformed kind rng p =
  let scale = Float.ldexp in
  match kind with
  | 0 -> p
  | 1 -> Array.map (fun x -> if Random.State.int rng 3 = 0 then -0.0 else x) p
  | 2 -> Array.map (fun x -> scale x (-1070)) p
  | 3 -> Array.map (fun x -> scale x 500) p
  | 4 -> Array.map (fun x -> scale x (-500)) p
  | 5 -> Array.map (fun x -> scale x (Random.State.int rng 1001 - 500)) p
  | _ -> Array.map (fun x -> scale x (if Random.State.bool rng then 500 else -500)) p

let machine_counts = [| 1; 2; 3; 100 |]

(* m and the times, between m-1 and 50m of them. *)
let bound_input (mi, shape, kind, seed) =
  let rng = Random.State.make [| seed |] in
  let m = machine_counts.(mi) in
  let n = max 0 (m - 1 + Random.State.int rng ((49 * m) + 2)) in
  let p =
    if kind = 7 then
      (* m+1 equal large times, the rest tiny: packing's k = 1 term,
         twice the large time, beats the average and the largest. *)
      let big = 1.0 +. Random.State.float rng 1e6 in
      let tiny = Random.State.float rng 1e-6 in
      Array.init (max n (m + 1)) (fun j -> if j <= m then big else tiny)
    else transformed kind rng (shaped shape n rng)
  in
  (m, p)

let bound_arb =
  QCheck.(quad (int_bound 3) (int_bound 6) (int_bound 7) int)

let outcome f =
  match f () with
  | v -> Ok (Int64.bits_of_float v)
  | exception Invalid_argument msg -> Error msg

let prop_best_is_the_max_bit_for_bit =
  QCheck.Test.make ~name:"best = max average largest packing, bit for bit" ~count:3000
    bound_arb (fun params ->
      let m, p = bound_input params in
      outcome (fun () -> Lb.best ~m p)
      = outcome (fun () ->
            Float.max (Lb.average ~m p) (Float.max (Lb.largest p) (Lb.packing ~m p))))

(* The certificate's soundness: the ceiling never falls below the
   float the sort path computes, on the same inputs with every time
   made non-negative. *)
let prop_ceiling_covers_packing =
  QCheck.Test.make ~name:"packing_ceiling >= packing" ~count:1500 bound_arb
    (fun params ->
      let m, p = bound_input params in
      let p = Array.map Float.abs p in
      let packing = Lb.packing ~m p in
      Float.is_nan packing || Lb.packing_ceiling ~m p >= packing)

(* Where the bound is the average, as on uniform batch instances, the
   ceiling certifies it; where packing wins it cannot. *)
let certificate_decides () =
  let rng = Random.State.make [| 11 |] in
  let m = 100 in
  let p = Array.init 200_000 (fun _ -> 1.0 +. Random.State.float rng 199.0) in
  let trivial = Float.max (Lb.average ~m p) (Lb.largest p) in
  checkb "uniform times: certified" true (Lb.packing_ceiling ~m p <= trivial);
  checkb "uniform times: packing below the average" true (Lb.packing ~m p < trivial);
  let crowded = Array.init 1000 (fun j -> if j <= m then 50.0 else 1e-3) in
  close "packing wins" 100.0 (Lb.best ~m crowded);
  checkb "crowded times: not certified" true
    (Lb.packing_ceiling ~m crowded
    > Float.max (Lb.average ~m crowded) (Lb.largest crowded));
  checkb "NaN: nothing certified" true (Lb.packing_ceiling ~m:2 [| 1.0; nan; 1.0 |] = infinity)

let () =
  checkb "self" true true;
  Alcotest.run "lower_bounds"
    [
      ( "unit",
        [
          Alcotest.test_case "average" `Quick average_bound;
          Alcotest.test_case "largest" `Quick largest_bound;
          Alcotest.test_case "packing n<=m" `Quick packing_trivial_when_n_le_m;
          Alcotest.test_case "packing pair" `Quick packing_pair_bound;
          Alcotest.test_case "packing multiplicity" `Quick packing_higher_multiplicity;
          Alcotest.test_case "best" `Quick best_takes_max;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
          Alcotest.test_case "fsort small and special" `Quick fsort_small_and_special;
          Alcotest.test_case "certificate decides" `Quick certificate_decides;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sound_vs_exact_optimum;
            prop_monotone_in_m;
            prop_packing_at_least_largest_pair_when_crowded;
            prop_fsort_matches_array_sort;
            prop_best_is_the_max_bit_for_bit;
            prop_ceiling_covers_packing;
          ] );
    ]
