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

let grammar =
  "uniform:P (every machine fails with probability P) or M comma-separated \
   probabilities, each in [0, 1]"

let of_spec ~m:mm text =
  Spec_text.with_grammar grammar
    (match String.split_on_char ':' text with
    | [ "uniform"; raw ] ->
        Result.map
          (fun p -> uniform ~m:mm ~p)
          (Spec_text.(read Prob) "uniform failure probability" raw)
    | [ _ ] -> (
        match Spec_text.(read (List (',', Prob))) "failure probability" text with
        | Ok probs when List.length probs <> mm ->
            Error
              (Printf.sprintf "profile lists %d probabilities for %d machines"
                 (List.length probs) mm)
        | r -> Result.map (fun probs -> { p = Array.of_list probs }) r)
    | _ -> Error (Printf.sprintf "bad failure profile %S" text))

let pp ppf t =
  Format.fprintf ppf "failure-profile[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list t.p)
