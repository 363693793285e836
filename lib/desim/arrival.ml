module Rng = Usched_prng.Rng
module Spec_text = Usched_model.Spec_text

type t =
  | Poisson of { rate : float }
  | Mmpp of { rates : float array; switch : float }
  | Trace of float array

let finite_pos name v =
  if not (Float.is_finite v && v > 0.0) then
    invalid_arg (Printf.sprintf "Arrival.%s must be finite and > 0" name)

let poisson ~rate =
  finite_pos "poisson: rate" rate;
  Poisson { rate }

(* [trace]'s checks, as a message for the trace:FILE reader. *)
let check_trace times =
  let rec from i prev =
    if i = Array.length times then Ok ()
    else
      let x = times.(i) in
      if not (Float.is_finite x && x >= 0.0) then
        Error "instants must be finite and >= 0"
      else if x < prev then Error "instants must be non-decreasing"
      else from (i + 1) x
  in
  from 0 0.0

let trace times =
  match check_trace times with
  | Ok () -> Trace (Array.copy times)
  | Error msg -> invalid_arg ("Arrival.trace: " ^ msg)

let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { rates; switch = _ } ->
      Array.fold_left ( +. ) 0.0 rates /. float_of_int (Array.length rates)
  | Trace times ->
      let n = Array.length times in
      if n = 0 then 0.0
      else
        let span = times.(n - 1) in
        if span > 0.0 then float_of_int n /. span else 0.0

(* Inverse-CDF exponential variate. [Rng.float] is uniform in [0, 1), so
   [1 - u] is in (0, 1] and the log is finite; a rate-0 state never
   produces an arrival (infinite delay). *)
let exponential rng ~rate =
  if rate <= 0.0 then infinity else -.Float.log1p (-.Rng.float rng) /. rate

(* Fold arrivals into [emit] until [continue] says stop. Every process
   generates a non-decreasing sequence starting from time 0. *)
let iter_arrivals t rng ~continue ~emit =
  match t with
  | Poisson { rate } ->
      let now = ref 0.0 in
      let rec loop () =
        if continue !now then begin
          now := !now +. exponential rng ~rate;
          if continue !now then begin
            emit !now;
            loop ()
          end
        end
      in
      loop ()
  | Mmpp { rates; switch } ->
      let k = Array.length rates in
      let now = ref 0.0 in
      let state = ref 0 in
      let state_end = ref (exponential rng ~rate:(1.0 /. switch)) in
      let rec loop () =
        if continue !now then begin
          let candidate = !now +. exponential rng ~rate:rates.(!state) in
          if candidate <= !state_end then begin
            now := candidate;
            if continue !now then begin
              emit !now;
              loop ()
            end
          end
          else begin
            (* Sojourn expired before the next arrival: the memoryless
               within-state process restarts in the next state. *)
            now := !state_end;
            state := (!state + 1) mod k;
            state_end := !state_end +. exponential rng ~rate:(1.0 /. switch);
            loop ()
          end
        end
      in
      loop ()
  | Trace times ->
      let i = ref 0 in
      while !i < Array.length times && continue times.(!i) do
        emit times.(!i);
        incr i
      done

let generate t rng ~count =
  if count < 0 then invalid_arg "Arrival.generate: count < 0";
  (match t with
  | Trace times when Array.length times < count ->
      invalid_arg
        (Printf.sprintf
           "Arrival.generate: trace holds %d arrivals, %d requested"
           (Array.length times) count)
  | _ -> ());
  let out = Array.make count 0.0 in
  let filled = ref 0 in
  iter_arrivals t rng
    ~continue:(fun _ -> !filled < count)
    ~emit:(fun x ->
      out.(!filled) <- x;
      incr filled);
  out

let describe = function
  | Poisson { rate } -> "poisson:" ^ Spec_text.float_to_string rate
  | Mmpp { rates; switch } ->
      Printf.sprintf "mmpp:%s:%s"
        (String.concat ","
           (Array.to_list (Array.map Spec_text.float_to_string rates)))
        (Spec_text.float_to_string switch)
  | Trace times -> Printf.sprintf "trace:<%d arrivals>" (Array.length times)

let grammar = "rate:L | poisson:L | mmpp:R1,R2,...:S | trace:FILE"

let ( let* ) = Result.bind

(* One arrival instant per line; blank lines and [#] comments skipped. *)
let read_trace_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error ("trace: " ^ msg)
  | lines ->
      let rec instants acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | line :: rest ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then instants acc rest
            else
              let* x = Spec_text.(read Number) "arrival instant" line in
              instants (x :: acc) rest
      in
      let checked =
        let* times = instants [] lines in
        let* () = check_trace times in
        Ok (Trace times)
      in
      Result.map_error (Printf.sprintf "trace %s: %s" path) checked

let of_string s =
  Spec_text.with_grammar grammar
    (match String.split_on_char ':' s with
    | [ ("rate" | "poisson"); rate ] ->
        let* rate = Spec_text.(read Positive) "rate" rate in
        Ok (Poisson { rate })
    | [ "mmpp"; rates; switch ] ->
        let* rates = Spec_text.(read (List (',', Number))) "mmpp rate" rates in
        let* switch = Spec_text.(read Positive) "mmpp sojourn" switch in
        if List.exists (fun r -> not (Float.is_finite r && r >= 0.0)) rates then
          Error "mmpp rates must be finite and >= 0"
        else if not (List.exists (fun r -> r > 0.0) rates) then
          Error "mmpp needs a rate > 0"
        else Ok (Mmpp { rates = Array.of_list rates; switch })
    | "trace" :: (_ :: _ as path) -> read_trace_file (String.concat ":" path)
    | ("rate" | "poisson" | "mmpp" | "trace") :: _ ->
        Error (Printf.sprintf "bad arrival spec %S" s)
    | _ -> Error (Printf.sprintf "unknown arrival process %S" s))
