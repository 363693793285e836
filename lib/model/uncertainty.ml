type alpha = float

let alpha a =
  if not (Float.is_finite a) || a < 1.0 then
    invalid_arg "Uncertainty.alpha: factor must be finite and >= 1";
  a

let to_float a = a

let interval a ~est = (est /. a, est *. a)

let admissible a ~est ~actual =
  let lo, hi = interval a ~est in
  let tol = 1e-9 *. Float.max 1.0 hi in
  actual >= lo -. tol && actual <= hi +. tol

let clamp a ~est v =
  let lo, hi = interval a ~est in
  Float.min hi (Float.max lo v)

let pp ppf a = Format.fprintf ppf "alpha=%g" a
