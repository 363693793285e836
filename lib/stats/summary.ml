type t = {
  mutable n : int;
  mutable mean : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let min t = t.min
let max t = t.max

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  t
