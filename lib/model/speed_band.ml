module Rng = Usched_prng.Rng

type t = { lo : float array; hi : float array }

let valid_speed x = Float.is_finite x && x > 0.0

let make bands =
  if Array.length bands = 0 then
    invalid_arg "Speed_band.make: need at least one machine";
  Array.iteri
    (fun i (lo, hi) ->
      if not (valid_speed lo && valid_speed hi) then
        invalid_arg
          (Printf.sprintf
             "Speed_band.make: machine %d band [%g, %g] must be finite and > 0"
             i lo hi);
      if lo > hi then
        invalid_arg
          (Printf.sprintf "Speed_band.make: machine %d band has lo %g > hi %g"
             i lo hi))
    bands;
  { lo = Array.map fst bands; hi = Array.map snd bands }

let uniform ~m ~lo ~hi =
  if m < 1 then invalid_arg "Speed_band.uniform: need at least one machine";
  make (Array.make m (lo, hi))

let degenerate speeds = make (Array.map (fun s -> (s, s)) speeds)
let nominal ~m = uniform ~m ~lo:1.0 ~hi:1.0

let tiered ~m =
  if m < 1 then invalid_arg "Speed_band.tiered: need at least one machine";
  let quarter = m / 4 in
  degenerate
    (Array.init m (fun i ->
         if i < quarter then 2.0 else if i >= m - quarter then 0.5 else 1.0))

let widen t ~spread =
  if not (Float.is_finite spread && spread >= 1.0) then
    invalid_arg "Speed_band.widen: spread must be finite and >= 1";
  make
    (Array.init (Array.length t.lo) (fun i ->
         (t.lo.(i) /. spread, t.hi.(i) *. spread)))

let m t = Array.length t.lo
let lo t i = t.lo.(i)
let hi t i = t.hi.(i)
let los t = Array.copy t.lo
let his t = Array.copy t.hi
let mids t = Array.init (m t) (fun i -> 0.5 *. (t.lo.(i) +. t.hi.(i)))

let is_degenerate t =
  let ok = ref true in
  for i = 0 to m t - 1 do
    if t.lo.(i) <> t.hi.(i) then ok := false
  done;
  !ok

let contains t speeds =
  Array.length speeds = m t
  && begin
       let ok = ref true in
       Array.iteri
         (fun i s -> if not (t.lo.(i) <= s && s <= t.hi.(i)) then ok := false)
         speeds;
       !ok
     end

let sample t rng =
  Array.init (m t) (fun i ->
      (* Unconditional draw keeps one variate per machine, so equal seeds
         pair revelations across bands; a degenerate machine returns its
         exact bound (float_range could perturb it). *)
      let draw = Rng.float_range rng ~lo:t.lo.(i) ~hi:t.hi.(i) in
      if t.lo.(i) = t.hi.(i) then t.lo.(i) else draw)


let to_string t =
  let str = Spec_text.float_to_string in
  String.concat ","
    (List.init (m t) (fun i ->
         if t.lo.(i) = t.hi.(i) then str t.lo.(i)
         else Printf.sprintf "%s:%s" (str t.lo.(i)) (str t.hi.(i))))

let grammar =
  "uniform:LO:HI (same band on every machine) or M comma-separated LO:HI or \
   S entries, all speeds finite and > 0 with LO <= HI"

let ( let* ) = Result.bind

let ordered what ~lo ~hi =
  if lo > hi then Error (Printf.sprintf "%s has LO %g > HI %g" what lo hi)
  else Ok (lo, hi)

let entry raw =
  match Spec_text.(read (List (':', Positive))) "speed" raw with
  | Ok [ s ] -> Ok (s, s)
  | Ok [ lo; hi ] -> ordered (Printf.sprintf "band %S" raw) ~lo ~hi
  | Ok _ -> Error (Printf.sprintf "bad band %S (expected LO:HI or S)" raw)
  | Error _ as e -> e

let of_spec ~m:mm text =
  Spec_text.with_grammar grammar
    (match String.split_on_char ':' text with
    | [ "uniform"; lo; hi ] ->
        let* lo = Spec_text.(read Positive) "uniform LO" lo in
        let* hi = Spec_text.(read Positive) "uniform HI" hi in
        let* _ = ordered "uniform band" ~lo ~hi in
        Ok (uniform ~m:mm ~lo ~hi)
    | _ ->
        let rec entries acc = function
          | [] -> Ok (List.rev acc)
          | raw :: rest ->
              let* band = entry raw in
              entries (band :: acc) rest
        in
        let* bands = entries [] (String.split_on_char ',' text) in
        if List.length bands <> mm then
          Error
            (Printf.sprintf "speed band lists %d machines, instance has %d"
               (List.length bands) mm)
        else
          Ok
            {
              lo = Array.of_list (List.map fst bands);
              hi = Array.of_list (List.map snd bands);
            })

let pp ppf t =
  Format.fprintf ppf "speed-band[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf i ->
         if t.lo.(i) = t.hi.(i) then Format.fprintf ppf "%g" t.lo.(i)
         else Format.fprintf ppf "%g..%g" t.lo.(i) t.hi.(i)))
    (List.init (m t) Fun.id)
