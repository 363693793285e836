type t = { actuals : float array }

(* Both constructors are plain loops over flat float arrays; the
   admissibility scan runs inside [Uncertainty], so no per-task float is
   boxed. *)
let check instance ~ests actuals =
  let j =
    Uncertainty.first_inadmissible (Instance.alpha instance) ~ests ~actuals
  in
  if j >= 0 then
    invalid_arg
      (Printf.sprintf
         "Realization.of_actuals: task %d actual %g violates the alpha \
          interval of estimate %g"
         j actuals.(j) ests.(j))

let of_actuals instance actuals =
  if Array.length actuals <> Instance.n instance then
    invalid_arg "Realization.of_actuals: length mismatch";
  let actuals = Array.copy actuals in
  check instance ~ests:(Instance.ests instance) actuals;
  { actuals }

(* [actual j = f.(j) * est j], written over the factors: [f] must be an
   array this module made, and it becomes the realization's column. *)
let scale_factors instance f =
  let ests = Instance.ests instance in
  for j = 0 to Array.length f - 1 do
    f.(j) <- f.(j) *. ests.(j)
  done;
  check instance ~ests f;
  { actuals = f }

let of_factors instance factors =
  if Array.length factors <> Instance.n instance then
    invalid_arg "Realization.of_factors: length mismatch";
  scale_factors instance (Array.copy factors)

let exact instance = of_actuals instance (Instance.ests instance)

let[@inline] actual t j = t.actuals.(j)
let actuals t = t.actuals
let total t = Array.fold_left ( +. ) 0.0 t.actuals

(* Factors are drawn in task order, one draw per task, straight into
   the column that becomes the actual times. *)
let random_factors instance fill rng =
  let factors = Array.create_float (Instance.n instance) in
  fill (Instance.alpha_value instance) rng factors;
  scale_factors instance factors

let uniform_factor instance rng =
  random_factors instance
    (fun a rng f -> Usched_prng.Rng.fill_range rng f ~lo:(1.0 /. a) ~hi:a)
    rng

let log_uniform_factor instance rng =
  random_factors instance
    (fun a rng f ->
      if a = 1.0 then Array.fill f 0 (Array.length f) 1.0
      else Usched_prng.Dist.fill_log_uniform rng f ~lo:(1.0 /. a) ~hi:a)
    rng

let extremes ~p_high instance rng =
  if p_high < 0.0 || p_high > 1.0 then
    invalid_arg "Realization.extremes: p_high out of [0, 1]";
  random_factors instance
    (fun a rng f ->
      for j = 0 to Array.length f - 1 do
        f.(j) <- (if Usched_prng.Rng.bernoulli rng ~p:p_high then a else 1.0 /. a)
      done)
    rng

let biased ~factor instance =
  let a = Instance.alpha_value instance in
  if factor < (1.0 /. a) -. 1e-12 || factor > a +. 1e-12 then
    invalid_arg "Realization.biased: factor outside [1/alpha, alpha]";
  scale_factors instance (Array.make (Instance.n instance) factor)

let clustered ~clusters instance rng =
  if clusters < 1 then invalid_arg "Realization.clustered: clusters < 1";
  let a = Instance.alpha_value instance in
  let cluster_factor =
    Array.init clusters (fun _ ->
        if a = 1.0 then 1.0
        else Usched_prng.Dist.log_uniform rng ~lo:(1.0 /. a) ~hi:a)
  in
  let f = Array.create_float (Instance.n instance) in
  for j = 0 to Array.length f - 1 do
    f.(j) <- cluster_factor.(j mod clusters)
  done;
  scale_factors instance f
