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

let of_factors instance factors =
  let n = Instance.n instance in
  if Array.length factors <> n then
    invalid_arg "Realization.of_factors: length mismatch";
  let ests = Instance.ests instance in
  let actuals = Array.create_float n in
  for j = 0 to n - 1 do
    actuals.(j) <- factors.(j) *. ests.(j)
  done;
  check instance ~ests actuals;
  { actuals }

let exact instance = of_actuals instance (Instance.ests instance)

let[@inline] actual t j = t.actuals.(j)
let actuals t = Array.copy t.actuals
let total t = Array.fold_left ( +. ) 0.0 t.actuals

(* Factors are drawn in task order, one draw per task. *)
let random_factors instance draw rng =
  let a = Instance.alpha_value instance in
  let factors = Array.create_float (Instance.n instance) in
  for j = 0 to Array.length factors - 1 do
    factors.(j) <- draw a rng
  done;
  factors

let uniform_factor instance rng =
  of_factors instance
    (random_factors instance
       (fun a rng -> Usched_prng.Rng.float_range rng ~lo:(1.0 /. a) ~hi:a)
       rng)

let log_uniform_factor instance rng =
  of_factors instance
    (random_factors instance
       (fun a rng ->
         if a = 1.0 then 1.0
         else Usched_prng.Dist.log_uniform rng ~lo:(1.0 /. a) ~hi:a)
       rng)

let extremes ~p_high instance rng =
  if p_high < 0.0 || p_high > 1.0 then
    invalid_arg "Realization.extremes: p_high out of [0, 1]";
  of_factors instance
    (random_factors instance
       (fun a rng -> if Usched_prng.Rng.bernoulli rng ~p:p_high then a else 1.0 /. a)
       rng)

let biased ~factor instance =
  let a = Instance.alpha_value instance in
  if factor < (1.0 /. a) -. 1e-12 || factor > a +. 1e-12 then
    invalid_arg "Realization.biased: factor outside [1/alpha, alpha]";
  of_factors instance (Array.make (Instance.n instance) factor)

let clustered ~clusters instance rng =
  if clusters < 1 then invalid_arg "Realization.clustered: clusters < 1";
  let a = Instance.alpha_value instance in
  let cluster_factor =
    Array.init clusters (fun _ ->
        if a = 1.0 then 1.0
        else Usched_prng.Dist.log_uniform rng ~lo:(1.0 /. a) ~hi:a)
  in
  of_factors instance
    (Array.init (Instance.n instance) (fun j -> cluster_factor.(j mod clusters)))
