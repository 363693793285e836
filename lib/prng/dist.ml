let check_log_range lo hi =
  if lo <= 0.0 || lo > hi then invalid_arg "Dist.log_uniform: need 0 < lo <= hi"

let log_uniform rng ~lo ~hi =
  check_log_range lo hi;
  exp (Rng.float_range rng ~lo:(log lo) ~hi:(log hi))

(* Uniform exponents first, then [exp] in place: each slot holds what
   [log_uniform] would have returned for that draw. *)
let fill_log_uniform rng a ~lo ~hi =
  check_log_range lo hi;
  Rng.fill_range rng a ~lo:(log lo) ~hi:(log hi);
  for j = 0 to Array.length a - 1 do
    a.(j) <- exp a.(j)
  done

let exponential rng ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean <= 0";
  let u = 1.0 -. Rng.float rng in
  -.mean *. log u

let pareto rng ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Dist.pareto: parameters must be > 0";
  let u = 1.0 -. Rng.float rng in
  scale /. (u ** (1.0 /. shape))

let normal rng ~mu ~sigma =
  let u1 = 1.0 -. Rng.float rng in
  let u2 = Rng.float rng in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let bimodal rng ~p_long ~short ~long =
  if Rng.bernoulli rng ~p:p_long then long rng else short rng
