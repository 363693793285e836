type _ kind =
  | Int : int kind
  | Nat : int kind
  | Number : float kind
  | Positive : float kind
  | Prob : float kind
  | List : char * 'a kind -> 'a list kind

let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* End of the digit run of [s] that starts at [i]. *)
let rec digits s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then digits s (i + 1)
  else i

(* End of a [[+-]digits] run of [s] at [i], or [i] when there is none. *)
let integer s i =
  let j = if i < String.length s && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
  let k = digits s j in
  if k > j then k else i

let is_decimal s =
  let at i c = i < String.length s && s.[i] = c in
  let i = integer s 0 in
  let j = if at i '.' && digits s (i + 1) > i + 1 then digits s (i + 1) else i in
  let k = if at j 'e' && integer s (j + 1) > j + 1 then integer s (j + 1) else j in
  i > 0 && k = String.length s

let int what raw =
  if raw = "" || integer raw 0 <> String.length raw then
    error "%s %S is not an integer" what raw
  else
    match int_of_string_opt raw with
    | Some k -> Ok k
    | None -> error "%s %s is out of range" what raw

let number what raw =
  if raw = "inf" || is_decimal raw then Ok (float_of_string raw)
  else error "%s %S is not a number" what raw

let rec read : type a. a kind -> string -> string -> (a, string) result =
 fun kind what raw ->
  match kind with
  | Int -> int what raw
  | Nat -> (
      match int what raw with
      | Ok k when k < 0 -> error "%s %s must be >= 0" what raw
      | r -> r)
  | Number -> number what raw
  | Positive -> (
      match number what raw with
      | Ok x when not (Float.is_finite x && x > 0.0) ->
          error "%s %s must be finite and > 0" what raw
      | r -> r)
  | Prob -> (
      match number what raw with
      | Ok x when not (x >= 0.0 && x <= 1.0) ->
          error "%s %s must be in [0, 1]" what raw
      | r -> r)
  | List (sep, item) ->
      let rec fields acc = function
        | [] -> Ok (List.rev acc)
        | field :: rest -> (
            match read item what field with
            | Ok x -> fields (x :: acc) rest
            | Error msg -> Error msg)
      in
      fields [] (String.split_on_char sep raw)

let with_grammar grammar =
  Result.map_error (fun msg -> msg ^ "; expected " ^ grammar)

let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f
