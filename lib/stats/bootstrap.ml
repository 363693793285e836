module Rng = Usched_prng.Rng

type interval = { lo : float; hi : float; point : float }

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Each resample's mean is summed as its elements are drawn, in draw
   order, which is the order the mean of a materialized resample sums
   in: the same floats as the generic percentile bootstrap with the
   mean as its statistic (test_bootstrap keeps that as the oracle),
   without building [resamples] arrays of [n] draws. *)
let mean_interval ?(resamples = 1000) ?(confidence = 0.95) ~rng data =
  let n = Array.length data in
  if n = 0 then invalid_arg "Bootstrap.mean_interval: empty data";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Bootstrap.mean_interval: confidence out of (0, 1)";
  if resamples < 1 then invalid_arg "Bootstrap.mean_interval: resamples < 1";
  let stats = Array.make resamples 0.0 in
  for r = 0 to resamples - 1 do
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. data.(Rng.int rng n)
    done;
    stats.(r) <- !sum /. float_of_int n
  done;
  let tail = (1.0 -. confidence) /. 2.0 in
  {
    lo = Quantile.quantile stats ~q:tail;
    hi = Quantile.quantile stats ~q:(1.0 -. tail);
    point = mean data;
  }
