module Rng = Usched_prng.Rng

type interval = { lo : float; hi : float; point : float }

let check ~n ~resamples ~confidence =
  if n = 0 then invalid_arg "Bootstrap.interval: empty data";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Bootstrap.interval: confidence out of (0, 1)";
  if resamples < 1 then invalid_arg "Bootstrap.interval: resamples < 1"

let percentiles ~confidence stats point =
  let tail = (1.0 -. confidence) /. 2.0 in
  let lo = Quantile.quantile stats ~q:tail in
  let hi = Quantile.quantile stats ~q:(1.0 -. tail) in
  { lo; hi; point }

let interval ?(resamples = 1000) ?(confidence = 0.95) ~statistic ~rng data =
  let n = Array.length data in
  check ~n ~resamples ~confidence;
  let stats =
    Array.init resamples (fun _ ->
        let resample = Array.init n (fun _ -> data.(Rng.int rng n)) in
        statistic resample)
  in
  percentiles ~confidence stats (statistic data)

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Each resample's mean is summed as its elements are drawn, in draw
   order, which is the order [mean] sums a materialized resample in: the
   same floats as [interval ~statistic:mean], without building
   [resamples] arrays of [n] draws. *)
let mean_interval ?(resamples = 1000) ?(confidence = 0.95) ~rng data =
  let n = Array.length data in
  check ~n ~resamples ~confidence;
  let stats = Array.make resamples 0.0 in
  for r = 0 to resamples - 1 do
    let sum = ref 0.0 in
    for _ = 1 to n do
      sum := !sum +. data.(Rng.int rng n)
    done;
    stats.(r) <- !sum /. float_of_int n
  done;
  percentiles ~confidence stats (mean data)
