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


(* Bit-exact floats for the header round trip, same scheme as
   [Strategy.float_str]. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string t =
  String.concat ","
    (List.init (m t) (fun i ->
         if t.lo.(i) = t.hi.(i) then float_str t.lo.(i)
         else Printf.sprintf "%s:%s" (float_str t.lo.(i)) (float_str t.hi.(i))))

let of_string text =
  let parse_bound raw =
    match float_of_string_opt (String.trim raw) with
    | Some x when valid_speed x -> Ok x
    | Some x -> Error (Printf.sprintf "speed %g must be finite and > 0" x)
    | None -> Error (Printf.sprintf "bad speed %S" raw)
  in
  let parse_entry raw =
    match String.split_on_char ':' raw with
    | [ s ] -> Result.map (fun v -> (v, v)) (parse_bound s)
    | [ l; h ] -> (
        match (parse_bound l, parse_bound h) with
        | Ok lo, Ok hi ->
            if lo > hi then
              Error (Printf.sprintf "band %S has lo > hi" raw)
            else Ok (lo, hi)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (Printf.sprintf "bad band %S (expected LO:HI or S)" raw)
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        match parse_entry raw with
        | Ok band -> parse (band :: acc) rest
        | Error _ as e -> e)
  in
  match parse [] (String.split_on_char ',' text) with
  | Error _ as e -> e
  | Ok [] -> Error "empty speed band"
  | Ok bands ->
      let bands = Array.of_list bands in
      Ok { lo = Array.map fst bands; hi = Array.map snd bands }

let spec_grammar =
  "expected uniform:LO:HI (same band on every machine) or M comma-separated \
   LO:HI or S entries, all speeds finite and > 0 with LO <= HI"

let of_spec ~m:mm text =
  let with_grammar = function
    | Ok _ as ok -> ok
    | Error msg -> Error (Printf.sprintf "%s; %s" msg spec_grammar)
  in
  match String.split_on_char ':' text with
  | [ "uniform"; lo_raw; hi_raw ] ->
      with_grammar
        (match (float_of_string_opt lo_raw, float_of_string_opt hi_raw) with
        | Some lo, Some hi -> (
            match uniform ~m:mm ~lo ~hi with
            | t -> Ok t
            | exception Invalid_argument msg -> Error msg)
        | _ -> Error (Printf.sprintf "bad uniform band %S" text))
  | _ ->
      with_grammar
        (match of_string text with
        | Ok t when m t = mm -> Ok t
        | Ok t ->
            Error
              (Printf.sprintf "speed band lists %d machines, instance has %d"
                 (m t) mm)
        | Error _ as e -> e)

let pp ppf t =
  Format.fprintf ppf "speed-band[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf i ->
         if t.lo.(i) = t.hi.(i) then Format.fprintf ppf "%g" t.lo.(i)
         else Format.fprintf ppf "%g..%g" t.lo.(i) t.hi.(i)))
    (List.init (m t) Fun.id)
