(* Unit and property tests for the PRNG substrate. *)

module Splitmix64 = Usched_prng.Splitmix64
module Xoshiro256 = Usched_prng.Xoshiro256
module Rng = Usched_prng.Rng
module Dist = Usched_prng.Dist

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Reference outputs of SplitMix64 seeded with 1234567, from the public
   C reference implementation. *)
let splitmix_reference () =
  let g = Splitmix64.create 1234567L in
  let observed = List.init 4 (fun _ -> Splitmix64.next g) in
  let expected =
    [ 6457827717110365317L; 3203168211198807973L; -8629252141511181193L;
      4593380528125082431L ]
  in
  check Alcotest.(list int64) "first outputs" expected observed

let splitmix_deterministic () =
  let a = Splitmix64.create 99L and b = Splitmix64.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let xoshiro_deterministic () =
  let a = Xoshiro256.create 7L and b = Xoshiro256.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xoshiro256.next a) (Xoshiro256.next b)
  done

(* The stream seeded with 7: its first outputs, the outputs after a jump,
   and a float, pinned so a change of state representation cannot move
   a single bit of any seeded experiment. *)
let xoshiro_reference () =
  let g = Xoshiro256.create 7L in
  check
    Alcotest.(list int64)
    "first outputs"
    [ 1021219803524665661L; 3174977118032272916L; -5209800880474007438L;
      7880630202246103356L ]
    (List.init 4 (fun _ -> Xoshiro256.next g));
  let j = Xoshiro256.copy g in
  Xoshiro256.jump j;
  check
    Alcotest.(list int64)
    "after a jump"
    [ -2179565296972798486L; -5547542947831578657L ]
    (List.init 2 (fun _ -> Xoshiro256.next j));
  check Alcotest.(float 0.0) "first float of seed 11" 0x1.b8357798d4d28p-1
    (Rng.float (Rng.create ~seed:11 ()));
  let a = Xoshiro256.create 5L and b = Xoshiro256.create 5L in
  for _ = 1 to 100 do
    check Alcotest.int "next_bits is the top 62 bits of next"
      (Int64.to_int (Int64.shift_right_logical (Xoshiro256.next a) 2))
      (Xoshiro256.next_bits b)
  done

let xoshiro_jump_disjoint () =
  let a = Xoshiro256.create 7L in
  let b = Xoshiro256.copy a in
  Xoshiro256.jump b;
  let xs = List.init 50 (fun _ -> Xoshiro256.next a) in
  let ys = List.init 50 (fun _ -> Xoshiro256.next b) in
  checkb "jumped stream differs" true (xs <> ys)

let xoshiro_float_unit_interval () =
  let g = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let rng_int_bounds () =
  let rng = Rng.create ~seed:1 () in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let x = Rng.int rng bound in
      checkb "in range" true (x >= 0 && x < bound)
    done
  done

let rng_int_rejects_nonpositive () =
  let rng = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0))

(* [Rng.int] against its definition: rejection sampling of the top 62
   bits under the smallest mask 1, 3, 7, ... covering [bound - 1], on a
   twin stream ([Rng.create ~seed] seeds Xoshiro256 with [seed]). *)
let rng_int_matches_definition () =
  List.iter
    (fun bound ->
      let rec grow m = if m >= bound - 1 then m else grow ((m * 2) + 1) in
      let mask = grow 1 in
      let twin = Xoshiro256.create 17L in
      let rec draw () =
        let bits = Int64.to_int (Int64.shift_right_logical (Xoshiro256.next twin) 2) land mask in
        if bits < bound then bits else draw ()
      in
      let rng = Rng.create ~seed:17 () in
      for _ = 1 to 50 do
        check Alcotest.int (Printf.sprintf "bound %d" bound) (draw ()) (Rng.int rng bound)
      done)
    ([ 1; 2; 3; 4; 5; 1000; 1023; 1024; 1025; (1 lsl 40) + 1; 1 lsl 61; max_int ]
    @ List.init 70 (fun i -> i + 6))

let rng_int_uniformity () =
  (* Chi-squared-ish sanity: all 8 buckets within 3x of each other. *)
  let rng = Rng.create ~seed:2 () in
  let counts = Array.make 8 0 in
  for _ = 1 to 80_000 do
    let x = Rng.int rng 8 in
    counts.(x) <- counts.(x) + 1
  done;
  let lo = Array.fold_left Stdlib.min max_int counts in
  let hi = Array.fold_left Stdlib.max 0 counts in
  checkb "roughly uniform" true (hi < 3 * lo)

let rng_float_range () =
  let rng = Rng.create ~seed:4 () in
  for _ = 1 to 10_000 do
    let x = Rng.float_range rng ~lo:2.5 ~hi:3.5 in
    checkb "in [2.5,3.5)" true (x >= 2.5 && x < 3.5)
  done

let rng_split_independent () =
  let rng = Rng.create ~seed:6 () in
  let child1 = Rng.split rng in
  let child2 = Rng.split rng in
  let s1 = List.init 20 (fun _ -> Rng.float child1) in
  let s2 = List.init 20 (fun _ -> Rng.float child2) in
  checkb "children differ" true (s1 <> s2)

let rng_bernoulli_frequency () =
  let rng = Rng.create ~seed:7 () in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  checkb "close to 0.3" true (Float.abs (freq -. 0.3) < 0.02)

let dist_exponential_mean () =
  let rng = Rng.create ~seed:8 () in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 4" true (Float.abs (mean -. 4.0) < 0.15)

let dist_pareto_minimum () =
  let rng = Rng.create ~seed:9 () in
  for _ = 1 to 10_000 do
    checkb "above scale" true (Dist.pareto rng ~shape:1.5 ~scale:2.0 >= 2.0)
  done

let dist_log_uniform_range () =
  let rng = Rng.create ~seed:10 () in
  for _ = 1 to 10_000 do
    let x = Dist.log_uniform rng ~lo:0.5 ~hi:2.0 in
    checkb "in range" true (x >= 0.5 && x <= 2.0)
  done

let dist_log_uniform_symmetry () =
  (* log-uniform on [1/a, a] should put half the mass below 1. *)
  let rng = Rng.create ~seed:11 () in
  let below = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Dist.log_uniform rng ~lo:0.25 ~hi:4.0 < 1.0 then incr below
  done;
  let freq = float_of_int !below /. float_of_int n in
  checkb "median at 1" true (Float.abs (freq -. 0.5) < 0.02)

(* The Gaussian under [lognormal]: its log has mean [mu] and variance
   [sigma^2]. *)
let dist_lognormal_log_moments () =
  let rng = Rng.create ~seed:12 () in
  let n = 100_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = log (Dist.lognormal rng ~mu:1.0 ~sigma:2.0) in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  checkb "mean near 1" true (Float.abs (mean -. 1.0) < 0.05);
  checkb "variance near 4" true (Float.abs (var -. 4.0) < 0.2)

let dist_bimodal_mixture () =
  let rng = Rng.create ~seed:14 () in
  let longs = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x =
      Dist.bimodal rng ~p_long:0.2 ~short:(fun _ -> 1.0) ~long:(fun _ -> 100.0)
    in
    if x > 50.0 then incr longs
  done;
  let freq = float_of_int !longs /. float_of_int n in
  checkb "long fraction near 0.2" true (Float.abs (freq -. 0.2) < 0.02)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference values" `Quick splitmix_reference;
          Alcotest.test_case "deterministic" `Quick splitmix_deterministic;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "reference values" `Quick xoshiro_reference;
          Alcotest.test_case "jump disjoint" `Quick xoshiro_jump_disjoint;
          Alcotest.test_case "floats in [0,1)" `Quick xoshiro_float_unit_interval;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick rng_int_rejects_nonpositive;
          Alcotest.test_case "int matches its definition" `Quick rng_int_matches_definition;
          Alcotest.test_case "int uniformity" `Quick rng_int_uniformity;
          Alcotest.test_case "float_range" `Quick rng_float_range;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "bernoulli frequency" `Quick rng_bernoulli_frequency;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick dist_exponential_mean;
          Alcotest.test_case "pareto minimum" `Quick dist_pareto_minimum;
          Alcotest.test_case "log-uniform range" `Quick dist_log_uniform_range;
          Alcotest.test_case "log-uniform symmetry" `Quick dist_log_uniform_symmetry;
          Alcotest.test_case "lognormal log moments" `Quick dist_lognormal_log_moments;
          Alcotest.test_case "bimodal mixture" `Quick dist_bimodal_mixture;
        ] );
    ]
