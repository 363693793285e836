(* The spec grammars' shared lexical rule ([Spec_text]) and one fuzz
   harness over every grammar: strategy, dispatch policy, recovery
   target, arrival, workload, failure profile, speed band, topology,
   and the instance header line that embeds the last three.

   The unit cases pin each spelling whose acceptance changed when the
   grammars moved onto [Spec_text]: each was accepted somewhere before
   and is an error everywhere now. The properties print a random valid
   value, check that the grammar reads it back ([of_spec (to_string x)
   = Ok x] where a printer exists), then mutate the text (flipped,
   inserted and deleted bytes, truncation, doubled separators) and
   check that the parser returns [Ok] or [Error] and never raises; the
   instance parser's error channel is [Failure]. [trace:FILE] does file
   I/O and keeps its unit cases in test_stream. *)

open Usched_model
module Strategy = Usched_core.Strategy
module Dispatch = Usched_desim.Dispatch
module Arrival = Usched_desim.Arrival
module Recovery = Usched_faults.Recovery

let checkb = Alcotest.(check bool)

(* ------------------------- the lexical rule ------------------------- *)

let accepts parse text = Result.is_ok (parse text)

(* Each grammar at a fixed machine count where it needs one. *)
let grammars =
  [
    ("--algo", accepts Strategy.of_string);
    ("--policy", accepts Dispatch.spec_of_string);
    ("--recover", accepts Recovery.target_of_string);
    ("--arrival", accepts Arrival.of_string);
    ("--workload", accepts Workload.of_spec);
    ("--failp", accepts (Failure.of_spec ~m:2));
    ("--speed-band", accepts (Speed_band.of_spec ~m:2));
    ("--topology", accepts (Topology.of_spec ~m:4));
  ]

let check_specs ~accepted specs () =
  List.iter
    (fun (flag, text) ->
      checkb
        (Printf.sprintf "%s %S %s" flag text
           (if accepted then "accepted" else "rejected"))
        accepted
        ((List.assoc flag grammars) text))
    specs

let rejected = check_specs ~accepted:false

(* One case per spelling; every spec listed was accepted before. *)
let spellings =
  [
    ( "underscore in a number",
      [
        ("--algo", "ls-group:1_0"); ("--algo", "sabo:1_0");
        ("--policy", "random:1_0"); ("--recover", "1_0");
        ("--arrival", "rate:1_0"); ("--workload", "uniform:1:1_0");
        ("--failp", "0_1,0"); ("--speed-band", "1_0,0x1p1");
        ("--topology", "zones:2:1_0");
      ] );
    ( "hexadecimal number",
      [
        ("--algo", "ls-group:0x2"); ("--algo", "sabo:0x1p1");
        ("--policy", "random:0x10"); ("--recover", "0x2");
        ("--arrival", "rate:0x1p1"); ("--workload", "uniform:1:0x1p1");
        ("--failp", "0x1p-1,0.5"); ("--speed-band", "0x1p1,1");
        ("--topology", "zones:0x2:1");
      ] );
    ( "binary and octal integers",
      [
        ("--algo", "ls-group:0b10"); ("--policy", "random:0o7");
        ("--recover", "0b1"); ("--topology", "zones:0o2:1");
      ] );
    ( "leading blank",
      [
        ("--algo", "sabo: 0.5"); ("--recover", " 2"); ("--arrival", "rate: 2");
        ("--arrival", "mmpp: 4,0:10"); ("--workload", "uniform: 1:2");
        ("--failp", " 0.5,0.5"); ("--speed-band", " 3,1");
        ("--topology", "0,1,1, 1|inf,1:1,inf|0,0:0,0");
      ] );
    ( "trailing blank",
      [
        ("--recover", "2 "); ("--arrival", "mmpp:4 ,0:10");
        ("--failp", "0.5 ,0.5"); ("--speed-band", "3 ,1");
        ("--topology", "0,0,1,1|inf,1 :1,inf|0,0:0,0");
      ] );
    ( "bare decimal point",
      [
        ("--algo", "sabo:.5"); ("--algo", "memory:16."); ("--arrival", "rate:2.");
        ("--workload", "uniform:1:2."); ("--failp", ".5,.5");
        ("--speed-band", "2.,1"); ("--topology", "zones:2:.5");
      ] );
    ( "capital exponent",
      [
        ("--algo", "sabo:5E-1"); ("--arrival", "rate:1E1");
        ("--workload", "exponential:1E1"); ("--failp", "5E-1,0");
        ("--speed-band", "1E1,1"); ("--topology", "zones:2:1E1");
      ] );
    ( "infinity spelled other than inf",
      [
        ("--topology", "zones:2:infinity"); ("--topology", "zones:2:+inf");
        ("--topology", "0,0,1,1|Infinity,1:1,inf|0,0:0,0");
      ] );
  ]

(* Plain decimals with signs and exponents, [inf], and the keyword
   case that test_recovery pins stay valid. *)
let still_accepted =
  check_specs ~accepted:true
    [
      ("--topology", "zones:2:inf"); ("--topology", "zones:2:1e+1:5e-1");
      ("--topology", "0,0,1,1|inf,1:1,inf|0,0:0,0"); ("--algo", "sabo:+5e-1");
      ("--algo", "ls-group:+2"); ("--policy", "random:-3");
      ("--recover", "Degree"); ("--arrival", "mmpp:4,0:1e1");
      ("--failp", "-0,1"); ("--speed-band", "1:2,3");
    ]

let read_errors () =
  let check what expected got =
    Alcotest.(check (result int string)) what expected got
  in
  check "int" (Ok (-3)) (Spec_text.(read Int) "k" "-3");
  check "nat" (Error "k -3 must be >= 0") (Spec_text.(read Nat) "k" "-3");
  check "not an integer" (Error "k \"2.0\" is not an integer")
    (Spec_text.(read Int) "k" "2.0");
  check "overflow" (Error "k 99999999999999999999 is out of range")
    (Spec_text.(read Int) "k" "99999999999999999999");
  let fcheck what expected got =
    Alcotest.(check (result (list (float 0.0)) string)) what expected got
  in
  fcheck "list" (Ok [ 0.5; infinity ])
    (Spec_text.(read (List (',', Number))) "x" "0.5,inf");
  fcheck "empty field" (Error "x \"\" is not a number")
    (Spec_text.(read (List (',', Number))) "x" "1,,2");
  fcheck "positive" (Error "x inf must be finite and > 0")
    (Spec_text.(read (List (',', Positive))) "x" "1,inf");
  fcheck "probability" (Error "x 1.5 must be in [0, 1]")
    (Spec_text.(read (List (',', Prob))) "x" "1.5");
  Alcotest.(check (result int string))
    "with_grammar" (Error "k \"x\" is not an integer; expected K")
    (Spec_text.with_grammar "K" (Spec_text.(read Int) "k" "x"))

(* The flag shorthands are the header fields' grammar too, so the field
   and the flag share one parser; a field sized for another machine
   count names the field, not the instance constructor. *)
let header_fields () =
  let inst =
    Io.instance_of_string
      "# usched-instance m=4 alpha=1.5 failp=uniform:0.25 \
       speedband=uniform:0.5:2 topology=zones:2:0.5\n\
       id,est,size\n\
       0,4,1\n"
  in
  checkb "failp shorthand" true
    (Option.map Failure.to_string (Instance.failure inst)
    = Some "0.25,0.25,0.25,0.25");
  checkb "speedband shorthand" true
    (Option.map Speed_band.to_string (Instance.speed_band inst)
    = Some "0.5:2,0.5:2,0.5:2,0.5:2");
  checkb "topology shorthand" true
    (Option.map Topology.zones (Instance.topology inst) = Some 2);
  match
    Io.instance_of_string
      "# usched-instance m=4 alpha=1.5 failp=0.1,0.1\nid,est,size\n0,4,1\n"
  with
  | _ -> Alcotest.fail "a two-machine profile at m=4 accepted"
  | exception Failure msg ->
      Alcotest.(check string)
        "names the field"
        "Io: line 1: bad failp=: profile lists 2 probabilities for 4 machines; \
         expected uniform:P (every machine fails with probability P) or M \
         comma-separated probabilities, each in [0, 1]"
        msg

(* ------------------------------ fuzzing ----------------------------- *)

let float_text = Spec_text.float_to_string

(* A positive float that prints short, long, integral or with an
   exponent. *)
let positive rng =
  match Random.State.int rng 4 with
  | 0 -> float_of_int (1 + Random.State.int rng 100)
  | 1 -> 0.001 +. Random.State.float rng 10.0
  | 2 -> Float.ldexp 1.0 (Random.State.int rng 80 - 40)
  | _ -> 1.0 /. float_of_int (1 + Random.State.int rng 7)

let probability rng =
  match Random.State.int rng 4 with
  | 0 -> 0.0
  | 1 -> 1.0
  | 2 -> Float.ldexp 1.0 (-Random.State.int rng 60)
  | _ -> Random.State.float rng 1.0

let pick rng a = a.(Random.State.int rng (Array.length a))

let strategy rng ~m =
  match Random.State.int rng 5 with
  | 0 -> (pick rng (Array.of_list Strategy.all)).Strategy.example ~m
  | 1 -> Strategy.Sabo (positive rng)
  | 2 -> Strategy.Proportional (probability rng)
  | 3 ->
      Strategy.Reliability
        {
          target = 0.5 +. Random.State.float rng 0.49;
          budget =
            (if Random.State.bool rng then Some (positive rng) else None);
        }
  | _ ->
      Strategy.Uniform
        {
          variant = Strategy.U_group (1 + Random.State.int rng m);
          speeds = Array.init m (fun _ -> positive rng);
        }

let band rng ~m =
  Speed_band.make
    (Array.init m (fun _ ->
         let lo = positive rng in
         if Random.State.bool rng then (lo, lo) else (lo, lo +. positive rng)))

let topology rng ~m =
  let zones = 1 + Random.State.int rng m in
  let zone_of = Array.init m (fun i -> i * zones / m) in
  let bandwidth = Array.make_matrix zones zones infinity in
  let latency = Array.make_matrix zones zones 0.0 in
  for a = 0 to zones - 1 do
    for b = a + 1 to zones - 1 do
      let bw = if Random.State.bool rng then infinity else positive rng in
      let lat = if Random.State.bool rng then 0.0 else positive rng in
      bandwidth.(a).(b) <- bw;
      bandwidth.(b).(a) <- bw;
      latency.(a).(b) <- lat;
      latency.(b).(a) <- lat
    done
  done;
  Topology.make ~zone_of ~bandwidth ~latency

let workload rng =
  let f () = float_text (positive rng) in
  match Random.State.int rng 5 with
  | 0 -> "identical:" ^ f ()
  | 1 -> Printf.sprintf "uniform:1:%s" (float_text (1.0 +. positive rng))
  | 2 -> "exponential:" ^ f ()
  | 3 -> Printf.sprintf "pareto:%s:1:%s" (f ()) (float_text (1.0 +. positive rng))
  | _ -> Printf.sprintf "bimodal:%s:%s:%s" (float_text (probability rng)) (f ()) (f ())

let arrival rng ~m:_ =
  if Random.State.bool rng then Arrival.poisson ~rate:(positive rng)
  else
    Arrival.Mmpp
      {
        rates =
          Array.init
            (1 + Random.State.int rng 3)
            (fun i -> if i = 0 then positive rng else probability rng);
        switch = positive rng;
      }

let alphabet = ":,|.-+e0123456789 _xinfaudr\t"

let separators = ":,|"

(* One to three mutations: flip a byte, insert one, delete one, cut the
   text short, or double a separator. *)
let mutate rng text =
  let once text =
    let len = String.length text in
    let byte () =
      if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
      else alphabet.[Random.State.int rng (String.length alphabet)]
    in
    let at k = String.sub text 0 k and from k = String.sub text k (len - k) in
    match Random.State.int rng 5 with
    | 0 when len > 0 ->
        let k = Random.State.int rng len in
        at k ^ String.make 1 (byte ()) ^ from (k + 1)
    | 1 ->
        let k = Random.State.int rng (len + 1) in
        at k ^ String.make 1 (byte ()) ^ from k
    | 2 when len > 0 ->
        let k = Random.State.int rng len in
        at k ^ from (k + 1)
    | 3 -> at (Random.State.int rng (len + 1))
    | _ -> (
        let seps =
          List.filter
            (fun k -> String.contains separators text.[k])
            (List.init len Fun.id)
        in
        match seps with
        | [] -> text
        | _ ->
            let k = List.nth seps (Random.State.int rng (List.length seps)) in
            at k ^ String.make 1 text.[k] ^ from k)
  in
  let text = ref text in
  for _ = 0 to Random.State.int rng 3 do
    text := once !text
  done;
  !text

(* A grammar under fuzz: from a seed, a printed valid spec and, when the
   grammar has a printer, a check that the text reads back as the value
   printed; then the parser itself. *)
type case = {
  name : string;
  valid : Random.State.t -> string * (unit -> bool) option;
  parse : string -> unit;
}

let printed name of_string ~print ~equal gen =
  {
    name;
    valid =
      (fun rng ->
        let x = gen rng ~m:4 in
        let text = print x in
        ( text,
          Some
            (fun () ->
              match of_string text with Ok y -> equal x y | Error _ -> false)
        ));
    parse = (fun text -> ignore (of_string text));
  }

let unprinted name of_string gen =
  {
    name;
    valid = (fun rng -> (gen rng, None));
    parse = (fun text -> ignore (of_string text));
  }

let header_line rng =
  let m = 1 + Random.State.int rng 4 in
  let inst =
    Instance.of_ests ~m
      ~alpha:(Uncertainty.alpha (1.0 +. positive rng))
      ~failure:(Failure.make (Array.init m (fun _ -> probability rng)))
      ~speed_band:(band rng ~m) ~topology:(topology rng ~m) [| 4.0 |]
  in
  List.hd (String.split_on_char '\n' (Io.instance_to_string inst))

let cases =
  [
    printed "strategy" Strategy.of_string ~print:Strategy.to_string
      ~equal:( = )
      (fun rng ~m -> strategy rng ~m:(m + Random.State.int rng 8));
    printed "dispatch policy" Dispatch.spec_of_string ~print:Dispatch.name
      ~equal:( = )
      (fun rng ~m:_ ->
        if Random.State.bool rng then pick rng (Array.of_list Dispatch.builtin)
        else Dispatch.Random_tiebreak (Random.State.bits rng - (1 lsl 29)));
    printed "recovery target" Recovery.target_of_string
      ~print:Recovery.target_to_string ~equal:( = )
      (fun rng ~m:_ ->
        if Random.State.bool rng then Recovery.Degree
        else Recovery.Fixed (Random.State.int rng 100));
    printed "failure profile" (Failure.of_spec ~m:4) ~print:Failure.to_string
      ~equal:Helpers.failure_equal
      (fun rng ~m -> Failure.make (Array.init m (fun _ -> probability rng)));
    printed "speed band" (Speed_band.of_spec ~m:4) ~print:Speed_band.to_string
      ~equal:Helpers.band_equal band;
    printed "topology" (Topology.of_spec ~m:4) ~print:Topology.to_string
      ~equal:Helpers.topology_equal topology;
    printed "arrival" Arrival.of_string ~print:Arrival.describe ~equal:( = )
      arrival;
    unprinted "workload" Workload.of_spec workload;
    {
      name = "instance header";
      valid = (fun rng -> (header_line rng, None));
      parse =
        (fun line ->
          match Io.instance_of_string (line ^ "\nid,est,size\n0,4,1\n") with
          | _ -> ()
          | exception Failure _ -> ());
    };
  ]

let fuzz case =
  let sample seed =
    let rng = Random.State.make [| seed |] in
    let text, round_trip = case.valid rng in
    (text, round_trip, mutate rng text)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: printed specs read back, mutants never raise" case.name)
    ~count:1000
    (QCheck.make
       ~print:(fun seed ->
         let text, _, mutant = sample seed in
         Printf.sprintf "valid %S, mutant %S" text mutant)
       QCheck.Gen.int)
    (fun seed ->
      let text, round_trip, mutant = sample seed in
      (match round_trip with
      | Some reads_back when not (reads_back ()) ->
          QCheck.Test.fail_reportf "%S does not read back" text
      | _ -> ());
      match case.parse mutant with
      | () -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" mutant (Printexc.to_string e))

let () =
  Alcotest.run "spec_text"
    [
      ( "lexical rule",
        Alcotest.test_case "readers and errors" `Quick read_errors
        :: Alcotest.test_case "still accepted" `Quick still_accepted
        :: Alcotest.test_case "header fields share the flag grammar" `Quick
             header_fields
        :: List.map
             (fun (name, specs) ->
               Alcotest.test_case name `Quick (rejected specs))
             spellings );
      ("fuzz", List.map (fun c -> QCheck_alcotest.to_alcotest (fuzz c)) cases);
    ]
