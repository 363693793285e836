let default_p = 0.05

type t = { p : float array }

let valid_prob x = (not (Float.is_nan x)) && x >= 0.0 && x <= 1.0

let make p =
  if Array.length p = 0 then
    invalid_arg "Failure.make: need at least one machine";
  Array.iteri
    (fun i x ->
      if not (valid_prob x) then
        invalid_arg
          (Printf.sprintf
             "Failure.make: machine %d probability %g not in [0, 1]" i x))
    p;
  { p = Array.copy p }

let uniform ~m ~p =
  if m < 1 then invalid_arg "Failure.uniform: need at least one machine";
  make (Array.make m p)

let m t = Array.length t.p
let p t i = t.p.(i)
let log_loss t i = Float.log t.p.(i)

let prob_all_lost t set =
  let log_sum = Bitset.fold (fun acc i -> acc +. log_loss t i) 0.0 set in
  Float.exp log_sum


let to_string t =
  String.concat ","
    (Array.to_list (Array.map (Printf.sprintf "%.17g") t.p))

let of_string text =
  let fields = String.split_on_char ',' text in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        match float_of_string_opt (String.trim raw) with
        | Some x when valid_prob x -> parse (x :: acc) rest
        | Some x ->
            Error (Printf.sprintf "failure probability %g not in [0, 1]" x)
        | None -> Error (Printf.sprintf "bad failure probability %S" raw))
  in
  match parse [] fields with
  | Error _ as e -> e
  | Ok [] -> Error "empty failure profile"
  | Ok probs -> Ok { p = Array.of_list probs }

let of_spec ~m:mm text =
  let parsed =
    match String.split_on_char ':' text with
    | [ "uniform"; raw ] -> (
        match float_of_string_opt raw with
        | Some p when valid_prob p -> Ok (uniform ~m:mm ~p)
        | _ ->
            Error
              (Printf.sprintf "uniform failure probability %S not in [0, 1]"
                 raw))
    | _ -> of_string text
  in
  match parsed with
  | Ok t when m t <> mm ->
      Error
        (Printf.sprintf "profile lists %d probabilities for %d machines" (m t)
           mm)
  | r -> r

let pp ppf t =
  Format.fprintf ppf "failure-profile[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list t.p)
