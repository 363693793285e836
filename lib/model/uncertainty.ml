type alpha = float

let alpha a =
  if not (Float.is_finite a) || a < 1.0 then
    invalid_arg "Uncertainty.alpha: factor must be finite and >= 1";
  a

let to_float a = a

let interval a ~est = (est /. a, est *. a)

let[@inline] admissible a ~est ~actual =
  let lo = est /. a and hi = est *. a in
  let tol = 1e-9 *. Float.max 1.0 hi in
  actual >= lo -. tol && actual <= hi +. tol

(* The loop lives here so [admissible] inlines into it: no float
   crosses a call boundary, so the scan boxes nothing. *)
let first_inadmissible a ~ests ~actuals =
  let n = Array.length actuals in
  let rec go j =
    if j >= n then -1
    else if admissible a ~est:ests.(j) ~actual:actuals.(j) then go (j + 1)
    else j
  in
  go 0

let clamp a ~est v =
  let lo, hi = interval a ~est in
  Float.min hi (Float.max lo v)

let pp ppf a = Format.fprintf ppf "alpha=%g" a
