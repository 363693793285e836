(* Tests for bootstrap confidence intervals. *)

module Bootstrap = Usched_stats.Bootstrap
module Rng = Usched_prng.Rng

(* The generic percentile bootstrap over materialized resamples: the
   oracle [Bootstrap.mean_interval] must match bit for bit with the mean
   as its statistic. *)
let interval ?(resamples = 1000) ?(confidence = 0.95) ~statistic ~rng data =
  let n = Array.length data in
  let stats =
    Array.init resamples (fun _ ->
        let resample = Array.init n (fun _ -> data.(Rng.int rng n)) in
        statistic resample)
  in
  let tail = (1.0 -. confidence) /. 2.0 in
  {
    Bootstrap.lo = Usched_stats.Quantile.quantile stats ~q:tail;
    hi = Usched_stats.Quantile.quantile stats ~q:(1.0 -. tail);
    point = statistic data;
  }

let checkb = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

let point_estimate_is_statistic () =
  let rng = Rng.create ~seed:1 () in
  let data = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ci = Bootstrap.mean_interval ~rng data in
  close "point = mean" 2.5 ci.Bootstrap.point

let interval_contains_point () =
  let rng = Rng.create ~seed:2 () in
  let data = Array.init 100 (fun i -> sin (float_of_int i)) in
  let ci = Bootstrap.mean_interval ~rng data in
  checkb "ordered" true (ci.Bootstrap.lo <= ci.Bootstrap.hi);
  checkb "contains point (symmetric stat)" true
    (ci.Bootstrap.lo <= ci.Bootstrap.point +. 0.05
    && ci.Bootstrap.point -. 0.05 <= ci.Bootstrap.hi)

let degenerate_data () =
  let rng = Rng.create ~seed:3 () in
  let ci = Bootstrap.mean_interval ~rng (Array.make 10 7.0) in
  close "lo" 7.0 ci.Bootstrap.lo;
  close "hi" 7.0 ci.Bootstrap.hi

let interval_narrows_with_n () =
  let noise seed n =
    let rng = Rng.create ~seed () in
    Array.init n (fun _ -> Rng.float rng)
  in
  let width data =
    let rng = Rng.create ~seed:5 () in
    let ci = Bootstrap.mean_interval ~resamples:2000 ~rng data in
    ci.Bootstrap.hi -. ci.Bootstrap.lo
  in
  checkb "narrower with more data" true (width (noise 4 2000) < width (noise 4 50))

let custom_statistic_max () =
  let rng = Rng.create ~seed:6 () in
  let data = [| 1.0; 5.0; 3.0 |] in
  let ci =
    interval ~rng ~statistic:(Array.fold_left Float.max neg_infinity)
      data
  in
  close "point is max" 5.0 ci.Bootstrap.point;
  checkb "hi never exceeds sample max" true (ci.Bootstrap.hi <= 5.0 +. 1e-12)

let coverage_sanity () =
  (* The 95% interval for the mean of U(0,1) samples should cover 0.5
     most of the time. *)
  let hits = ref 0 in
  for seed = 0 to 39 do
    let rng = Rng.create ~seed () in
    let data = Array.init 200 (fun _ -> Rng.float rng) in
    let ci = Bootstrap.mean_interval ~resamples:500 ~rng data in
    if ci.Bootstrap.lo <= 0.5 && 0.5 <= ci.Bootstrap.hi then incr hits
  done;
  checkb "covers true mean usually" true (!hits >= 32)

let invalid_inputs () =
  let rng = Rng.create ~seed:7 () in
  Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.mean_interval: empty data")
    (fun () -> ignore (Bootstrap.mean_interval ~rng [||]));
  Alcotest.check_raises "confidence"
    (Invalid_argument "Bootstrap.mean_interval: confidence out of (0, 1)") (fun () ->
      ignore (Bootstrap.mean_interval ~confidence:1.0 ~rng [| 1.0 |]));
  Alcotest.check_raises "resamples"
    (Invalid_argument "Bootstrap.mean_interval: resamples < 1") (fun () ->
      ignore (Bootstrap.mean_interval ~resamples:0 ~rng [| 1.0 |]))

(* The streamed mean interval draws the same variates and sums them in
   the same order as the generic interval over materialized resamples. *)
let prop_mean_interval_streamed =
  QCheck.Test.make ~count:200 ~name:"mean_interval = interval ~statistic:mean"
    QCheck.(triple (int_range 1 60) (int_range 1 200) (int_bound 1_000_000))
    (fun (n, resamples, seed) ->
      let rng = Rng.create ~seed () in
      let data =
        Array.init n (fun _ ->
            if seed mod 2 = 0 then Float.of_int (Rng.int rng 2)
            else Rng.float_range rng ~lo:(-5.0) ~hi:5.0)
      in
      let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
      Bootstrap.mean_interval ~resamples ~rng:(Rng.create ~seed ()) data
      = interval ~resamples ~statistic:mean ~rng:(Rng.create ~seed ()) data)

let () =
  Alcotest.run "bootstrap"
    [
      ( "unit",
        [
          Alcotest.test_case "point estimate" `Quick point_estimate_is_statistic;
          Alcotest.test_case "interval sanity" `Quick interval_contains_point;
          Alcotest.test_case "degenerate data" `Quick degenerate_data;
          Alcotest.test_case "narrows with n" `Quick interval_narrows_with_n;
          Alcotest.test_case "custom statistic" `Quick custom_statistic_max;
          Alcotest.test_case "coverage" `Quick coverage_sanity;
          Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_mean_interval_streamed ]);
    ]
