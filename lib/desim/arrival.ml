module Rng = Usched_prng.Rng

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

let mmpp ~rates ~switch =
  if Array.length rates = 0 then invalid_arg "Arrival.mmpp: no rates";
  Array.iter
    (fun r ->
      if not (Float.is_finite r && r >= 0.0) then
        invalid_arg "Arrival.mmpp: rates must be finite and >= 0")
    rates;
  if not (Array.exists (fun r -> r > 0.0) rates) then
    invalid_arg "Arrival.mmpp: at least one rate must be > 0";
  finite_pos "mmpp: switch" switch;
  Mmpp { rates = Array.copy rates; switch }

let trace times =
  let prev = ref 0.0 in
  Array.iter
    (fun x ->
      if not (Float.is_finite x && x >= 0.0) then
        invalid_arg "Arrival.trace: instants must be finite and >= 0";
      if x < !prev then
        invalid_arg "Arrival.trace: instants must be non-decreasing";
      prev := x)
    times;
  Trace (Array.copy times)

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
  | Poisson { rate } -> Printf.sprintf "poisson:%g" rate
  | Mmpp { rates; switch } ->
      Printf.sprintf "mmpp:%s:%g"
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%g") rates)))
        switch
  | Trace times -> Printf.sprintf "trace:<%d arrivals>" (Array.length times)

let grammar = "rate:L | poisson:L | mmpp:R1,R2,...:S | trace:FILE"

let fail fmt = Printf.ksprintf (fun msg -> Error (msg ^ " (" ^ grammar ^ ")")) fmt

let read_trace_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> fail "trace: %s" msg
  | lines -> (
      let values =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then None else Some line)
          lines
      in
      let parsed =
        List.map
          (fun s ->
            match float_of_string_opt s with
            | Some v -> Ok v
            | None -> Error s)
          values
      in
      match
        List.find_opt (function Error _ -> true | Ok _ -> false) parsed
      with
      | Some (Error s) -> fail "trace %s: invalid arrival instant %S" path s
      | _ -> (
          let arr =
            Array.of_list
              (List.map (function Ok v -> v | Error _ -> 0.0) parsed)
          in
          match trace arr with
          | t -> Ok t
          | exception Invalid_argument msg -> fail "trace %s: %s" path msg))

let of_string s =
  let pos_float name v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some f -> fail "%s %g must be finite and > 0" name f
    | None -> fail "invalid %s %S" name v
  in
  match String.index_opt s ':' with
  | None -> fail "expected an arrival spec, got %S" s
  | Some i -> (
      let keyword = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match keyword with
      | "rate" | "poisson" -> (
          match pos_float "rate" rest with
          | Ok rate -> Ok (Poisson { rate })
          | Error _ as e -> e)
      | "mmpp" -> (
          match String.rindex_opt rest ':' with
          | None -> fail "mmpp needs rates and a sojourn: mmpp:R1,R2,...:S"
          | Some j -> (
              let rates_s = String.sub rest 0 j in
              let switch_s =
                String.sub rest (j + 1) (String.length rest - j - 1)
              in
              match pos_float "mmpp sojourn" switch_s with
              | Error _ as e -> e
              | Ok switch -> (
                  let parts = String.split_on_char ',' rates_s in
                  let parsed =
                    List.map (fun p -> float_of_string_opt (String.trim p)) parts
                  in
                  if List.exists (( = ) None) parsed then
                    fail "mmpp: invalid rate list %S" rates_s
                  else
                    let rates =
                      Array.of_list (List.map Option.get parsed)
                    in
                    match mmpp ~rates ~switch with
                    | t -> Ok t
                    | exception Invalid_argument msg -> fail "%s" msg)))
      | "trace" -> read_trace_file rest
      | _ -> fail "unknown arrival process %S" keyword)
