(* Unit tests for the statistics substrate. *)

module Summary = Usched_stats.Summary
module Quantile = Usched_stats.Quantile
module Histogram = Usched_stats.Histogram

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let summary_basic () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 (Summary.count s);
  close "mean" 2.5 (Summary.mean s);
  close "min" 1.0 (Summary.min s);
  close "max" 4.0 (Summary.max s)

let summary_empty () =
  let s = Summary.create () in
  checkb "mean nan" true (Float.is_nan (Summary.mean s));
  close "min" infinity (Summary.min s)

let summary_single () =
  let s = Summary.of_array [| 7.0 |] in
  close "mean" 7.0 (Summary.mean s);
  close "min = max" (Summary.min s) (Summary.max s)

let summary_welford_stability () =
  (* Large offset: the running update keeps the mean's low digits. *)
  let offset = 1e9 in
  let data = Array.init 1000 (fun i -> offset +. float_of_int (i mod 10)) in
  let s = Summary.of_array data in
  Alcotest.(check (float 1e-6)) "mean stable" (offset +. 4.5) (Summary.mean s)

let quantile_median_odd () =
  close "median" 3.0 (Quantile.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |])

let quantile_median_even () =
  close "median interpolates" 2.5 (Quantile.median [| 1.0; 2.0; 3.0; 4.0 |])

let quantile_extremes () =
  let a = [| 3.0; 1.0; 2.0 |] in
  close "q0 is min" 1.0 (Quantile.quantile a ~q:0.0);
  close "q1 is max" 3.0 (Quantile.quantile a ~q:1.0)

let quantile_does_not_mutate () =
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Quantile.median a);
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] a

let quantile_quartiles () =
  let q1, q2, q3 = Quantile.quartiles (Array.init 101 (fun i -> float_of_int i)) in
  close "q1" 25.0 q1;
  close "q2" 50.0 q2;
  close "q3" 75.0 q3

let quantile_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile: empty sample")
    (fun () -> ignore (Quantile.median [||]))

let quantile_out_of_range_rejected () =
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile: q out of [0, 1]") (fun () ->
      ignore (Quantile.quantile [| 1.0 |] ~q:1.5))

(* The per-bin counts [Histogram.pp] prints. *)
let counts h =
  Format.asprintf "%a" Histogram.pp h
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")
  |> List.map (fun line ->
         let r = String.index line ')' in
         Scanf.sscanf (String.sub line (r + 1) (String.length line - r - 1)) " %d" Fun.id)
  |> Array.of_list

let histogram_counts () =
  Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |]
    (counts (Histogram.of_data ~bins:4 [| 0.0; 0.5; 1.5; 1.7; 2.5; 3.9 |]))

let histogram_hi_lands_in_last_bin () =
  Alcotest.(check (array int)) "hi in last bin" [| 1; 0; 1 |]
    (counts (Histogram.of_data ~bins:3 [| 0.0; 3.0 |]))

let histogram_rejects_bad_input () =
  Alcotest.check_raises "no bins" (Invalid_argument "Histogram.of_data: bins <= 0")
    (fun () -> ignore (Histogram.of_data ~bins:0 [| 1.0 |]));
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Histogram.of_data: NaN sample") (fun () ->
      ignore (Histogram.of_data [| 1.0; Float.nan; 2.0 |]))

let histogram_degenerate_data () =
  Alcotest.(check (array int)) "empty" [| 0; 0 |] (counts (Histogram.of_data ~bins:2 [||]));
  Alcotest.(check (array int)) "all equal" [| 3; 0; 0 |]
    (counts (Histogram.of_data ~bins:3 [| 4.0; 4.0; 4.0 |]))

let histogram_bin_range () =
  let h = Histogram.of_data ~bins:4 [| 0.0; 8.0 |] in
  let rows = String.split_on_char '\n' (Format.asprintf "%a" Histogram.pp h) in
  checkb "second bin is [2, 4)" true
    (String.starts_with ~prefix:(Printf.sprintf "[%10.4g, %10.4g)" 2.0 4.0)
       (List.nth rows 1))

let histogram_of_data_auto_range () =
  (* The range is the data's own [min, max]: bins [1, 2) and [2, 3]. *)
  Alcotest.(check (array int)) "total preserved" [| 1; 2 |]
    (counts (Histogram.of_data ~bins:2 [| 1.0; 2.0; 3.0 |]))

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basic moments" `Quick summary_basic;
          Alcotest.test_case "empty" `Quick summary_empty;
          Alcotest.test_case "single observation" `Quick summary_single;
          Alcotest.test_case "numerical stability" `Quick summary_welford_stability;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "median odd" `Quick quantile_median_odd;
          Alcotest.test_case "median even" `Quick quantile_median_even;
          Alcotest.test_case "extremes" `Quick quantile_extremes;
          Alcotest.test_case "input not mutated" `Quick quantile_does_not_mutate;
          Alcotest.test_case "quartiles" `Quick quantile_quartiles;
          Alcotest.test_case "empty rejected" `Quick quantile_empty_rejected;
          Alcotest.test_case "bad q rejected" `Quick quantile_out_of_range_rejected;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick histogram_counts;
          Alcotest.test_case "hi endpoint" `Quick histogram_hi_lands_in_last_bin;
          Alcotest.test_case "bad input rejected" `Quick histogram_rejects_bad_input;
          Alcotest.test_case "degenerate data" `Quick histogram_degenerate_data;
          Alcotest.test_case "bin ranges" `Quick histogram_bin_range;
          Alcotest.test_case "auto range" `Quick histogram_of_data_auto_range;
        ] );
    ]
