(* The instance parser as it stood before the column-wise rewrite of
   [Usched_model.Io], frozen as the oracle of test_io's differential
   test: the rewrite must return a bit-identical instance, or fail with
   the same [Failure] text, on every input this one sees. Do not edit
   it to match the library; a behaviour change in the parser is a
   change to this file's contract and needs its own review. Rows are
   validated by the library's [Task.make], so the oracle refuses what
   it refuses: since non-finite estimates and sizes became errors, it
   expects "Task.make: estimate must be finite" and "Task.make: size
   must be finite" on those rows. The optional header fields go
   through the library's grammar parsers ([of_spec ~m]) too, since each
   grammar has one parser. *)

open Usched_model

let parse_error line_number message =
  failwith (Printf.sprintf "Io: line %d: %s" line_number message)

let parse_header line =
  let prefix = "# usched-instance " in
  let plen = String.length prefix in
  if String.length line < plen || String.sub line 0 plen <> prefix then
    parse_error 1 (Printf.sprintf "expected a '%s' header" prefix);
  let fields =
    String.split_on_char ' ' (String.sub line plen (String.length line - plen))
  in
  let lookup_opt key =
    let key_eq = key ^ "=" in
    match
      List.find_opt
        (fun f ->
          String.length f > String.length key_eq
          && String.sub f 0 (String.length key_eq) = key_eq)
        fields
    with
    | Some f ->
        Some
          (String.sub f (String.length key_eq)
             (String.length f - String.length key_eq))
    | None -> None
  in
  let lookup key =
    match lookup_opt key with
    | Some v -> v
    | None -> parse_error 1 (Printf.sprintf "missing %s= in header" key)
  in
  let m =
    match int_of_string_opt (lookup "m") with
    | Some m when m >= 1 && m <= Instance.max_machines -> m
    | Some m when m > Instance.max_machines ->
        parse_error 1
          (Printf.sprintf "m=%d exceeds the cap of %d machines" m
             Instance.max_machines)
    | Some _ | None -> parse_error 1 "m= must be an integer >= 1"
  in
  let alpha =
    match float_of_string_opt (lookup "alpha") with
    | Some a when Float.is_finite a && a >= 1.0 -> a
    | Some _ | None -> parse_error 1 "alpha= must be a finite number >= 1"
  in
  let failure =
    match lookup_opt "failp" with
    | None -> None
    | Some raw -> (
        match Failure.of_spec ~m raw with
        | Ok f -> Some f
        | Error msg -> parse_error 1 (Printf.sprintf "bad failp=: %s" msg))
  in
  let speed_band =
    match lookup_opt "speedband" with
    | None -> None
    | Some raw -> (
        match Speed_band.of_spec ~m raw with
        | Ok b -> Some b
        | Error msg -> parse_error 1 (Printf.sprintf "bad speedband=: %s" msg))
  in
  let topology =
    match lookup_opt "topology" with
    | None -> None
    | Some raw -> (
        match Topology.of_spec ~m raw with
        | Ok tp -> Some tp
        | Error msg -> parse_error 1 (Printf.sprintf "bad topology=: %s" msg))
  in
  (m, Uncertainty.alpha alpha, failure, speed_band, topology)


(* Parsing builds no list of lines: one scan over the text counts the
   rows, a second parses them straight into the task array. Line [k]
   (1-based) is the [k]-th '\n'-separated segment; the header is line 1,
   the column line 2, and every later line that is not blank (all
   [String.trim] whitespace) is a row. Errors name the physical line. *)

let is_blank text start stop =
  let rec go k =
    k >= stop
    || (match text.[k] with
       | ' ' | '\012' | '\n' | '\r' | '\t' -> go (k + 1)
       | _ -> false)
  in
  go start

(* Calls [row k line start stop] on the [k]-th row, which spans
   [text.[start .. stop-1]] on physical line [line]; returns the row
   count. *)
let iter_rows text row =
  let len = String.length text in
  let rec go pos line k =
    let stop =
      match String.index_from_opt text pos '\n' with Some e -> e | None -> len
    in
    let blank = line < 3 || is_blank text pos stop in
    if not blank then row k line pos stop;
    let k = if blank then k else k + 1 in
    if stop < len then go (stop + 1) (line + 1) k else k
  in
  go 0 1 0

(* Fills [seps] with the positions of a row's commas; the row must have
   exactly [Array.length seps + 1] fields. *)
let split_row line text start stop seps =
  let found = ref 0 in
  for k = start to stop - 1 do
    if text.[k] = ',' then begin
      if !found < Array.length seps then seps.(!found) <- k;
      incr found
    end
  done;
  if !found <> Array.length seps then
    parse_error line
      (Printf.sprintf "expected %d comma-separated fields" (Array.length seps + 1))

let field text start stop = String.sub text start (stop - start)

(* Task [k] must carry id [k]. *)
let id_field line k raw =
  match int_of_string_opt raw with
  | Some v when v = k -> v
  | Some v -> parse_error line (Printf.sprintf "id %d out of order (expected %d)" v k)
  | None -> parse_error line (Printf.sprintf "bad id %S" raw)

let float_field line_number name raw =
  match float_of_string_opt raw with
  | Some v -> v
  | None -> parse_error line_number (Printf.sprintf "bad %s %S" name raw)

(* After the id, the fields of a row are read right to left ([size],
   then [estimate]), so a row with several bad fields reports the id or
   else the rightmost one. *)
let task_of_row line text seps ~id ~stop =
  let size = float_field line "size" (field text (seps.(1) + 1) stop) in
  let est = float_field line "estimate" (field text (seps.(0) + 1) seps.(1)) in
  match Task.make ~id ~est ~size () with
  | task -> task
  | exception Invalid_argument msg -> parse_error line msg

let header text =
  match String.index_opt text '\n' with
  | Some e -> String.sub text 0 e
  | None -> text

let placeholder = Task.make ~id:0 ~est:1.0 ()

let instance_of_string text =
  let m, alpha, failure, speed_band, topology = parse_header (header text) in
  let tasks = Array.make (iter_rows text (fun _ _ _ _ -> ())) placeholder in
  let seps = Array.make 2 0 in
  ignore
    (iter_rows text (fun k line start stop ->
         split_row line text start stop seps;
         let id = id_field line k (field text start seps.(0)) in
         tasks.(k) <- task_of_row line text seps ~id ~stop));
  (* Rows and [m] are valid by now, so what [Instance.make] can still
     reject is an optional header field sized for another [m]. *)
  match Instance.make ?failure ?speed_band ?topology ~m ~alpha tasks with
  | instance -> instance
  | exception Invalid_argument msg -> parse_error 1 msg
