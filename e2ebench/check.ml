(* Output checks: read back what usched printed, under the labels that
   [Traced] uses, and check it. Any failed check fails the op. *)

module Json = Usched_report.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let index_of ~marker s =
  let n = String.length marker and len = String.length s in
  let rec go i =
    if i + n > len then None
    else if String.sub s i n = marker then Some i
    else go (i + 1)
  in
  go 0

let number_char = function '0' .. '9' | '.' | '-' | '+' | 'e' | '/' -> true | _ -> false

(* The number printed right after the first occurrence of [marker]. *)
let after ~marker out =
  match index_of ~marker out with
  | None -> bad "output lacks %S" marker
  | Some i ->
      let start = i + String.length marker in
      let stop = ref start in
      while !stop < String.length out && number_char out.[!stop] do
        incr stop
      done;
      String.sub out start (!stop - start)

(* The number printed right before the first occurrence of [marker]. *)
let before ~marker out =
  match index_of ~marker out with
  | None -> bad "output lacks %S" marker
  | Some i ->
      let start = ref i in
      while !start > 0 && number_char out.[!start - 1] do
        decr start
      done;
      String.sub out !start (i - !start)

let float s = match float_of_string_opt s with Some f -> f | None -> bad "not a number: %S" s

let fraction s =
  match String.split_on_char '/' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> (a, b)
      | _ -> bad "not a count: %S" s)
  | _ -> bad "not a count: %S" s

(* "(stranded: 3; 17; 42)" after the completion count, if any. *)
let stranded out =
  match index_of ~marker:"(stranded: " out with
  | None -> 0
  | Some i ->
      let rest = String.sub out i (String.length out - i) in
      let close = Option.get (index_of ~marker:")" rest) in
      List.length (String.split_on_char ';' (String.sub rest 0 close))

(* Every line of a [solve --trace] file is one JSON object, the first
   being the run's [meta] record. *)
let trace_file path =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  (match lines with
  | first :: _ -> (
      match Json.member "type" (Json.of_string_exn first) with
      | Some (Json.String "meta") -> ()
      | _ -> bad "trace does not start with a meta record")
  | [] -> bad "empty trace");
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Ok (Json.Obj _) -> ()
      | Ok _ | Error _ -> bad "trace line %d is not a JSON object" (i + 1))
    lines

(* The facts of one [solve] op, after checking them:
   - always: lower bound <= C_max;
   - faulty replay: completed + stranded = n, and at least one
     re-replication when a recovery target is set;
   - stream replay without faults: every task completes, p50 <= p95 <= p99;
   - speed band: the adversarial ratio dominates every Monte-Carlo one;
   - trace: the file is valid JSONL starting with [meta]. *)
let solve (g : Workload.gen) (s : Workload.solve) ~trace out : Traced.facts =
  let facts = ref [] in
  let fact label v =
    facts := (label, v) :: !facts;
    v
  in
  let cmax = float (fact "cmax" (after ~marker:"C_max = " out)) in
  let lb = float (fact "lb" (after ~marker:"(lower bound " out)) in
  ignore (fact "ratio" (after ~marker:"ratio <= " out));
  if lb > cmax then bad "lower bound %g exceeds C_max %g" lb cmax;
  if s.target_reliability <> None then
    ignore (fact "survival" (after ~marker:"P(no stranded task) ~ " out));
  if g.speed_band <> None then begin
    let adv = float (fact "ratio_adv" (after ~marker:"revealed-speed LB = " out)) in
    let worst = float (fact "mc_worst" (after ~marker:", worst " out)) in
    ignore (fact "reveal_cmax" (after ~marker:"(fault-layer slowdowns): C_max = " out));
    if adv < worst then bad "adversarial ratio %g below Monte-Carlo worst %g" adv worst
  end;
  (match s.arrival with
  | Some _ ->
      let completed, n = fraction (fact "completed" (after ~marker:"completed " out)) in
      let p50 = float (fact "p50" (after ~marker:"latency p50 " out)) in
      let p95 = float (fact "p95" (after ~marker:" p95 " out)) in
      let p99 = float (fact "p99" (after ~marker:" p99 " out)) in
      if s.fail_rate = 0.0 && completed <> n then bad "stream completed %d of %d" completed n;
      if not (p50 <= p95 && p95 <= p99) then bad "latency quantiles out of order"
  | None ->
      if s.fail_rate > 0.0 || s.speculate <> None || s.recover > 0 then begin
        let completed, n = fraction (fact "completed" (after ~marker:"completed " out)) in
        let lost = stranded out in
        ignore (fact "stranded" (string_of_int lost));
        ignore (fact "faulty_cmax" (after ~marker:"effective C_max = " out));
        if completed + lost <> n then
          bad "completed %d + stranded %d <> %d tasks" completed lost n;
        (* Printed whenever a recovery policy is active. *)
        if index_of ~marker:" re-replication(s)" out <> None then begin
          let r = fact "rereplications" (before ~marker:" re-replication(s)" out) in
          if s.recover > 0 && int_of_string r <= 0 then bad "no re-replication happened"
        end
      end);
  Option.iter
    (fun path ->
      trace_file path;
      ignore (fact "trace" (Traced.digest path)))
    trace;
  List.rev !facts

(* An artifacts op writes one manifest per experiment. *)
let artifacts ~expected ~csv =
  let manifests =
    List.filter
      (fun f -> Filename.check_suffix f ".manifest.json")
      (Array.to_list (Sys.readdir csv))
  in
  let n = List.length manifests in
  if n <> expected then bad "%d manifests written, expected %d" n expected;
  [ ("manifests", string_of_int n) ]

(* The traced copy must print what the CLI printed. *)
let same_facts ~cli ~traced =
  let sort = List.sort compare in
  if sort cli <> sort traced then
    bad "traced copy disagrees with the CLI: %s"
      (String.concat ", "
         (List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k traced with
              | Some v' when v' = v -> None
              | Some v' -> Some (Printf.sprintf "%s %s vs %s" k v v')
              | None -> Some (k ^ " missing"))
            cli))
