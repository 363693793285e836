(* Tests for instance persistence. *)

module Io = Usched_model.Io
module Instance = Usched_model.Instance
module Uncertainty = Usched_model.Uncertainty
module Workload = Usched_model.Workload
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)

let sample_instance () =
  Instance.of_ests ~m:3
    ~alpha:(Uncertainty.alpha 1.75)
    ~sizes:[| 1.0; 2.5; 0.25 |]
    [| 4.0; 3.5; 0.125 |]

let same_instance a b =
  Instance.n a = Instance.n b
  && Instance.m a = Instance.m b
  && Instance.alpha_value a = Instance.alpha_value b
  && Instance.ests a = Instance.ests b
  && Instance.sizes a = Instance.sizes b

let instance_round_trip () =
  let inst = sample_instance () in
  let back = Io.instance_of_string (Io.instance_to_string inst) in
  checkb "round trip preserves everything" true (same_instance inst back)

let instance_round_trip_exact_floats () =
  (* Awkward float values must survive exactly (printed with %.17g). *)
  let inst =
    Instance.of_ests ~m:2
      ~alpha:(Uncertainty.alpha (1.0 +. Float.epsilon))
      [| Float.pi; 1.0 /. 3.0 |]
  in
  let back = Io.instance_of_string (Io.instance_to_string inst) in
  checkb "bit-exact floats" true (same_instance inst back)

let file_round_trip () =
  let inst = sample_instance () in
  let path = Filename.temp_file "usched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_instance ~path inst;
      checkb "file round trip" true (same_instance inst (Io.load_instance ~path)))

let generated_workloads_round_trip () =
  let rng = Rng.create ~seed:4 () in
  List.iter
    (fun (_, spec) ->
      let inst =
        Workload.generate spec ~n:25 ~m:5 ~alpha:(Uncertainty.alpha 1.5) rng
      in
      let back = Io.instance_of_string (Io.instance_to_string inst) in
      checkb (Workload.spec_name spec) true (same_instance inst back))
    (Workload.standard_suite ~m:5)

let failure_profile_round_trip () =
  let module Failure = Usched_model.Failure in
  let f = Failure.make [| 0.05; 1.0 /. 3.0; 0.0 |] in
  let inst = Instance.with_failure (sample_instance ()) (Some f) in
  let back = Io.instance_of_string (Io.instance_to_string inst) in
  checkb "tasks preserved" true (same_instance inst back);
  (match Instance.failure back with
  | Some g -> checkb "profile bit-exact" true (Helpers.failure_equal g f)
  | None -> Alcotest.fail "failp field lost");
  (* Pre-profile files (no failp field) still parse, with no profile. *)
  let legacy = "# usched-instance m=2 alpha=1.5\nid,est,size\n0,4,1\n" in
  checkb "old headers parse as no profile" true
    (Instance.failure (Io.instance_of_string legacy) = None)

let speed_band_round_trip () =
  let module Speed_band = Usched_model.Speed_band in
  let b =
    Speed_band.make
      [| (0.5, 2.0); (1.0 /. 3.0, Float.pi); (1.0, 1.0) |]
  in
  let inst = Instance.with_speed_band (sample_instance ()) (Some b) in
  let back = Io.instance_of_string (Io.instance_to_string inst) in
  checkb "tasks preserved" true (same_instance inst back);
  (match Instance.speed_band back with
  | Some g -> checkb "band bit-exact" true (Helpers.band_equal g b)
  | None -> Alcotest.fail "speedband field lost");
  (* Pre-band files (no speedband field) still parse, with no band. *)
  let legacy = "# usched-instance m=2 alpha=1.5\nid,est,size\n0,4,1\n" in
  checkb "old headers parse as no band" true
    (Instance.speed_band (Io.instance_of_string legacy) = None);
  (* A band and a failure profile share the header. *)
  let module Failure = Usched_model.Failure in
  let f = Failure.make [| 0.05; 0.1; 0.0 |] in
  let both = Instance.with_failure inst (Some f) in
  let back = Io.instance_of_string (Io.instance_to_string both) in
  checkb "failp and speedband coexist" true
    ((match Instance.failure back with
     | Some g -> Helpers.failure_equal g f
     | None -> false)
    &&
    match Instance.speed_band back with
    | Some g -> Helpers.band_equal g b
    | None -> false)

let topology_round_trip () =
  let module Topology = Usched_model.Topology in
  let topo =
    Topology.make
      ~zone_of:[| 0; 0; 1 |]
      ~bandwidth:[| [| infinity; 1.0 /. 3.0 |]; [| 1.0 /. 3.0; infinity |] |]
      ~latency:[| [| 0.0; Float.pi |]; [| Float.pi; 0.0 |] |]
  in
  let inst = Instance.with_topology (sample_instance ()) (Some topo) in
  let back = Io.instance_of_string (Io.instance_to_string inst) in
  checkb "tasks preserved" true (same_instance inst back);
  (match Instance.topology back with
  | Some g -> checkb "topology bit-exact" true (Helpers.topology_equal g topo)
  | None -> Alcotest.fail "topology field lost");
  (* Pre-topology files (no topology field) still parse, with none. *)
  let legacy = "# usched-instance m=2 alpha=1.5\nid,est,size\n0,4,1\n" in
  checkb "old headers parse as no topology" true
    (Instance.topology (Io.instance_of_string legacy) = None)

(* Satellite coverage: all three optional header fields combined —
   failp, speedband, and topology must coexist in one header and every
   one survive the round trip bit-exactly, on random values. *)
let prop_all_optional_fields_round_trip =
  QCheck.Test.make
    ~name:"failp + speedband + topology round trip together bit-exactly"
    ~count:150
    QCheck.(pair (int_range 1 5) (int_range 0 1_000_000))
    (fun (m, seed) ->
      let module Failure = Usched_model.Failure in
      let module Speed_band = Usched_model.Speed_band in
      let module Topology = Usched_model.Topology in
      let rng = Rng.create ~seed () in
      let f = Failure.make (Array.init m (fun _ -> Rng.float rng *. 0.9)) in
      let b =
        Speed_band.make
          (Array.init m (fun _ ->
               let lo = Rng.float_range rng ~lo:0.1 ~hi:1.0 in
               (lo, lo +. Rng.float rng)))
      in
      let zones = 1 + Rng.int rng m in
      let topo =
        Topology.zoned ~m ~zones
          ~bandwidth:(Rng.float_range rng ~lo:0.1 ~hi:10.0)
          ~latency:(Rng.float rng)
          ()
      in
      let inst =
        Instance.of_ests ~failure:f ~speed_band:b ~topology:topo ~m
          ~alpha:(Uncertainty.alpha 2.0)
          (Array.init (1 + Rng.int rng 10) (fun _ ->
               Rng.float_range rng ~lo:0.1 ~hi:9.0))
      in
      let back = Io.instance_of_string (Io.instance_to_string inst) in
      same_instance inst back
      && (match Instance.failure back with
         | Some g -> Helpers.failure_equal g f
         | None -> false)
      && (match Instance.speed_band back with
         | Some g -> Helpers.band_equal g b
         | None -> false)
      &&
      match Instance.topology back with
      | Some g -> Helpers.topology_equal g topo
      | None -> false)

let rejects_bad_topology () =
  List.iter
    (fun (name, topo) ->
      let bad =
        Printf.sprintf
          "# usched-instance m=2 alpha=1.5 topology=%s\nid,est,size\n0,4,1\n"
          topo
      in
      checkb name true
        (try
           ignore (Io.instance_of_string bad);
           false
         with Failure _ -> true))
    [
      ("junk", "zebra");
      ("missing matrices", "0,1");
      ("asymmetric bandwidth", "0,1|inf,1:2,inf|0,0:0,0");
      ("zero bandwidth", "0,1|inf,0:0,inf|0,0:0,0");
      ("negative latency", "0,1|inf,1:1,inf|0,-1:-1,0");
      ("non-contiguous zones", "0,2|inf,1:1,inf|0,0:0,0");
    ];
  (* A machine-count mismatch is caught by instance validation. *)
  let mismatched =
    "# usched-instance m=3 alpha=1.5 topology=0,1|inf,1:1,inf|0,0:0,0\n\
     id,est,size\n\
     0,4,1\n"
  in
  checkb "wrong machine count" true
    (try
       ignore (Io.instance_of_string mismatched);
       false
     with Failure msg -> String.starts_with ~prefix:"Io: line 1: " msg)

let rejects_bad_speed_band () =
  List.iter
    (fun (name, band) ->
      let bad =
        Printf.sprintf
          "# usched-instance m=2 alpha=1.5 speedband=%s\nid,est,size\n0,4,1\n"
          band
      in
      checkb name true
        (try
           ignore (Io.instance_of_string bad);
           false
         with Failure _ -> true))
    [
      ("inverted band", "2:0.5,1");
      ("zero speed", "0:1,1");
      ("nan speed", "nan:1,1");
      ("junk entry", "1,fast");
    ];
  (* A machine-count mismatch is caught by instance validation. *)
  let mismatched =
    "# usched-instance m=2 alpha=1.5 speedband=1,1,1\nid,est,size\n0,4,1\n"
  in
  checkb "wrong machine count" true
    (try
       ignore (Io.instance_of_string mismatched);
       false
     with Failure msg -> String.starts_with ~prefix:"Io: line 1: " msg)

let rejects_bad_failure_profile () =
  List.iter
    (fun (name, failp) ->
      let bad =
        Printf.sprintf "# usched-instance m=2 alpha=1.5 failp=%s\nid,est,size\n0,4,1\n"
          failp
      in
      checkb name true
        (try
           ignore (Io.instance_of_string bad);
           false
         with Failure _ -> true))
    [
      ("out-of-range probability", "0.1,1.5");
      ("nan probability", "nan,0.1");
      ("junk probability", "0.1,zebra");
    ];
  (* A machine-count mismatch is caught by instance validation. *)
  let mismatched =
    "# usched-instance m=2 alpha=1.5 failp=0.1,0.2,0.3\nid,est,size\n0,4,1\n"
  in
  checkb "wrong machine count" true
    (try
       ignore (Io.instance_of_string mismatched);
       false
     with Failure msg -> String.starts_with ~prefix:"Io: line 1: " msg)

let rejects_wrong_kind () =
  checkb "instance parser rejects another header" true
    (try
       ignore
         (Io.instance_of_string
            "# usched-realization m=2 alpha=1.5\nid,est,size,actual\n0,4,1,4\n");
       false
     with Failure _ -> true)

let rejects_malformed_rows () =
  let bad = "# usched-instance m=2 alpha=1.5\nid,est,size\n0,oops,1\n" in
  checkb "bad float" true
    (try
       ignore (Io.instance_of_string bad);
       false
     with Failure _ -> true);
  let missing = "# usched-instance m=2 alpha=1.5\nid,est,size\n0,1\n" in
  checkb "missing field" true
    (try
       ignore (Io.instance_of_string missing);
       false
     with Failure _ -> true)

let rejects_missing_header_field () =
  let no_alpha = "# usched-instance m=2\nid,est,size\n" in
  checkb "missing alpha" true
    (try
       ignore (Io.instance_of_string no_alpha);
       false
     with Failure _ -> true)

let prop_random_round_trip =
  QCheck.Test.make ~name:"random instances round trip bit-exactly" ~count:150
    QCheck.(
      triple (int_range 1 6)
        (list_of_size Gen.(int_range 1 25) (float_range 0.001 1e6))
        (float_range 1.0 10.0))
    (fun (m, ests, alpha) ->
      let ests = Array.of_list ests in
      let inst = Instance.of_ests ~m ~alpha:(Uncertainty.alpha alpha) ests in
      let back = Io.instance_of_string (Io.instance_to_string inst) in
      Instance.ests back = ests
      && Instance.m back = m
      && Instance.alpha_value back = alpha)

(* The writer's bytes, pinned: files written today must stay
   byte-identical to files written before. *)
let golden_instance () =
  Instance.of_ests ~m:2
    ~alpha:(Uncertainty.alpha 1.75)
    ~sizes:[| 1.0; 0.1; 1e-300; 0.0 |]
    [| Float.pi; 1.0 /. 3.0; 1e22; 5e-324 |]

let writer_golden_strings () =
  let inst = golden_instance () in
  Alcotest.(check string) "instance file"
    "# usched-instance m=2 alpha=1.75\n\
     id,est,size\n\
     0,3.1415926535897931,1\n\
     1,0.33333333333333331,0.10000000000000001\n\
     2,1e+22,1e-300\n\
     3,4.9406564584124654e-324,0\n"
    (Io.instance_to_string inst);
  let path = Filename.temp_file "usched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_instance ~path inst;
      let ic = open_in_bin path in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "saved file = string" (Io.instance_to_string inst) bytes)

(* Oracle for the writer: one [Printf.sprintf] per row. *)
let rows_oracle inst =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun t ->
            Printf.sprintf "%d,%.17g,%.17g\n" (Usched_model.Task.id t)
              (Usched_model.Task.est t) (Usched_model.Task.size t))
          (Instance.tasks inst)))

let prop_writer_matches_printf =
  QCheck.Test.make ~name:"rows are Printf's %d,%.17g,%.17g bytes" ~count:200
    QCheck.(pair (int_range 1 30) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let awkward () =
        match Random.State.int rng 5 with
        | 0 -> Float.ldexp (Random.State.float rng 1.0) (Random.State.int rng 2000 - 1000)
        | 1 -> float_of_int (1 + Random.State.int rng 1000)
        | 2 -> Float.ldexp 1.0 (50 + Random.State.int rng 950)
        | _ -> 1e-9 +. Random.State.float rng 100.0
      in
      let inst =
        Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0)
          ~sizes:(Array.init n (fun _ -> Float.abs (awkward ())))
          (Array.init n (fun _ -> Float.max 1e-300 (awkward ())))
      in
      let text = Io.instance_to_string inst in
      let header_len = String.index text '\n' + String.length "\nid,est,size\n" in
      String.sub text header_len (String.length text - header_len) = rows_oracle inst)

(* Parse errors name the physical line: blank lines count. *)
let parse_error text =
  match Io.instance_of_string text with
  | _ -> "parsed"
  | exception Failure msg -> msg

let error_texts () =
  let check = Alcotest.(check string) in
  let inst = "# usched-instance m=2 alpha=1.5\nid,est,size\n" in
  check "2-field row" "Io: line 3: expected 3 comma-separated fields"
    (parse_error (inst ^ "0,1\n"));
  check "4-field row" "Io: line 3: expected 3 comma-separated fields"
    (parse_error (inst ^ "0,1,1,1\n"));
  check "bad id" "Io: line 3: bad id \" 0\"" (parse_error (inst ^ " 0,1,1\n"));
  check "size before estimate" "Io: line 3: bad size \"z\"" (parse_error (inst ^ "0,y,z\n"));
  check "blank line before a malformed row" "Io: line 5: expected 3 comma-separated fields"
    (parse_error (inst ^ "0,4,1\n\n1,oops\n"));
  check "whitespace lines before a malformed row" "Io: line 6: bad estimate \"x\""
    (parse_error (inst ^ "  \n0,4,1\n\t\r\n1,x,1\n"));
  check "bad m" "Io: line 1: m= must be an integer >= 1"
    (parse_error "# usched-instance m=abc alpha=1.5\nid,est,size\n0,4,1\n");
  check "no machines" "Io: line 1: m= must be an integer >= 1"
    (parse_error "# usched-instance m=0 alpha=1.5\nid,est,size\n0,4,1\n");
  check "alpha below 1" "Io: line 1: alpha= must be a finite number >= 1"
    (parse_error "# usched-instance m=2 alpha=0.5\nid,est,size\n0,4,1\n");
  check "infinite alpha" "Io: line 1: alpha= must be a finite number >= 1"
    (parse_error "# usched-instance m=2 alpha=inf\nid,est,size\n0,4,1\n");
  check "bad estimate" "Io: line 3: bad estimate \"abc\""
    (parse_error (inst ^ "0,abc,1\n"));
  check "non-positive estimate" "Io: line 4: Task.make: estimate must be > 0"
    (parse_error (inst ^ "0,4,1\n1,-2,1\n"));
  check "ids out of order" "Io: line 4: id 2 out of order (expected 1)"
    (parse_error (inst ^ "0,4,1\n2,4,1\n"));
  check "infinite estimate" "Io: line 3: Task.make: estimate must be finite"
    (parse_error (inst ^ "0,inf,1\n1,2,1\n"));
  check "overflowing estimate" "Io: line 4: Task.make: estimate must be finite"
    (parse_error (inst ^ "0,4,1\n1,1e400,1\n"));
  check "nan size" "Io: line 3: Task.make: size must be finite"
    (parse_error (inst ^ "0,2,nan\n"));
  check "infinite size" "Io: line 3: Task.make: size must be finite"
    (parse_error (inst ^ "0,2,inf\n"));
  check "negative infinite size" "Io: line 3: Task.make: negative size"
    (parse_error (inst ^ "0,2,-inf\n"))

(* The columns' constructors refuse what the parser refuses. *)
let non_finite_columns () =
  let alpha = Uncertainty.alpha 2.0 in
  let refuses name msg ~ests ~sizes =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Instance.of_columns ~m:2 ~alpha ~ests ~sizes ()));
    Alcotest.check_raises (name ^ " (Task.make)") (Invalid_argument msg) (fun () ->
        ignore (Usched_model.Task.make ~id:0 ~est:ests.(0) ~size:sizes.(0) ()))
  in
  refuses "infinite estimate" "Task.make: estimate must be finite" ~ests:[| infinity |]
    ~sizes:[| 1.0 |];
  refuses "nan estimate" "Task.make: estimate must be > 0" ~ests:[| nan |] ~sizes:[| 1.0 |];
  refuses "nan size" "Task.make: size must be finite" ~ests:[| 1.0 |] ~sizes:[| nan |];
  refuses "infinite size" "Task.make: size must be finite" ~ests:[| 1.0 |]
    ~sizes:[| infinity |]

(* A header [m] past [Instance.max_machines] is a parse error at line 1,
   raised before anything per machine is allocated; the cap itself
   parses. *)
let machine_cap () =
  let cap = Instance.max_machines in
  let text m = Printf.sprintf "# usched-instance m=%d alpha=2\nid,est,size\n0,1,1\n" m in
  List.iter
    (fun m ->
      Alcotest.(check string)
        (Printf.sprintf "m=%d" m)
        (Printf.sprintf "Io: line 1: m=%d exceeds the cap of %d machines" m cap)
        (parse_error (text m)))
    [ cap + 1; 4_000_000_000; 4_000_000_000_000 ];
  Alcotest.(check int) "the cap parses" cap (Instance.m (Io.instance_of_string (text cap)))

let prop_blank_lines_ignored =
  QCheck.Test.make ~name:"blank and whitespace-only lines anywhere in the body are skipped"
    ~count:200
    QCheck.(pair (int_range 1 20) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let inst =
        Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0)
          (Array.init n (fun _ -> 0.1 +. Random.State.float rng 10.0))
      in
      let blanks = [| ""; " "; "\t"; "  \t "; "\r"; "\012" |] in
      let sprinkle text =
        match String.split_on_char '\n' text with
        | header :: columns :: rows ->
            let padded =
              List.concat_map
                (fun row ->
                  List.init (Random.State.int rng 3) (fun _ ->
                      blanks.(Random.State.int rng (Array.length blanks)))
                  @ [ row ])
                rows
            in
            String.concat "\n" (header :: columns :: padded)
        | _ -> text
      in
      same_instance inst (Io.instance_of_string (sprinkle (Io.instance_to_string inst))))

(* The writer prints an integral float below 2^53 through
   [string_of_int]; every value it can meet must still print as
   [%.17g]: integers, powers of two up to 2^60 (the fast path ends at
   2^53), both zeros ([-0.0] is a valid size) and non-integers. *)
let prop_writer_integers_match_printf =
  QCheck.Test.make ~name:"integral and awkward floats print as %.17g" ~count:200
    QCheck.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let positive () =
        match Random.State.int rng 6 with
        | 0 -> float_of_int (1 + Random.State.int rng 1_000_000)
        | 1 -> Float.ldexp 1.0 (Random.State.int rng 61)
        | 2 -> Float.ldexp 1.0 53 +. float_of_int (Random.State.int rng 5 - 2)
        | 3 ->
            Float.of_int (1 + Random.State.bits rng)
            *. Float.of_int (1 + Random.State.int rng 1_000_000)
        | 4 -> Float.ldexp 1.0 (Random.State.int rng 61) +. 0.5
        | _ -> 1e-9 +. Random.State.float rng 100.0
      in
      let size () =
        match Random.State.int rng 4 with
        | 0 -> 0.0
        | 1 -> -0.0
        | _ -> positive ()
      in
      let inst =
        Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 2.0)
          ~sizes:(Array.init n (fun _ -> size ()))
          (Array.init n (fun _ -> positive ()))
      in
      let text = Io.instance_to_string inst in
      let header_len = String.index text '\n' + String.length "\nid,est,size\n" in
      String.sub text header_len (String.length text - header_len) = rows_oracle inst)

(* [save_instance] hands the buffer to the channel in chunks; a file
   spanning several of them is still the string, byte for byte. *)
let chunked_save_equals_string () =
  let rng = Random.State.make [| 7 |] in
  let n = 20_000 in
  let inst =
    Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 2.0)
      ~sizes:(Array.init n (fun j -> float_of_int (j mod 3)))
      (Array.init n (fun _ -> 0.5 +. Random.State.float rng 100.0))
  in
  let path = Filename.temp_file "usched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_instance ~path inst;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      checkb "spans several chunks" true (String.length bytes > 4 * 65536);
      Alcotest.(check string) "saved file = string" (Io.instance_to_string inst) bytes)

(* ---- the parser against the frozen two-pass oracle (Io_oracle) ---- *)

let outcome parse text =
  match parse text with
  | inst -> Ok inst
  | exception Failure msg -> Error ("Failure: " ^ msg)
  | exception e -> Error (Printexc.to_string e)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let header_of inst =
  let text = Io.instance_to_string inst in
  String.sub text 0 (String.index text '\n')

let bit_identical a b =
  Instance.m a = Instance.m b
  && same_bits [| Instance.alpha_value a |] [| Instance.alpha_value b |]
  && same_bits (Instance.ests a) (Instance.ests b)
  && same_bits (Instance.sizes a) (Instance.sizes b)
  && header_of a = header_of b

(* Field values chosen to reach both sides of the digit fast path and
   every conversion corner: signs, '_', radix prefixes, exponents,
   inf/nan, '\r', digit strings at and past the exact lengths. The
   one-pass row's edges come second: 16, 17 and 18 significant digits
   around a point (17 digits take the succ/pred neighbours), leading
   zeros, a point first, last or twice, and 18- and 19-digit ids. *)
let tokens =
  [|
    "0"; "1"; "7"; "00"; "007"; "+1"; "-1"; "-0"; "+0"; "1_000"; "_1"; "1_";
    "0x10"; "0X1p3"; "0b101"; "0o17"; "1e3"; "1E-3"; "1.5"; ".5"; "5."; "inf";
    "-inf"; "infinity"; "nan"; "-nan"; "1\r"; " 1"; "1 "; ""; "999999999999999";
    "1000000000000000"; "9007199254740993"; "123456789012345678";
    "1234567890123456789"; "9999999999999999999"; "99999999999999999999"; "4.9406564584124654e-324";
    "1e400"; "0.0"; "-0.0"; "2"; "3"; "x";
    "1.234567890123456"; "1.2345678901234567"; "1.23456789012345678";
    "52.378415973847291"; "0.30000000000000004"; "0.1000000000000000055";
    "99999999999999.999"; "0.00012345678901234567"; "12345678901234567";
    "00.5"; "0001.25"; "000000000000000000001.5"; "0.000"; "1.2.3"; "1..2";
    "000000000000000000"; "0000000000000000000"; "000000000000000001";
    "0000000000000000001"; "100000000000000000";
  |]

let insertions =
  [| "0"; "9"; "+"; "-"; "_"; "0x"; "e"; "E5"; "inf"; "nan"; "\r"; "\n"; "\n\n";
     ","; " "; "\t"; "."; "\012" |]

let mutate rng text =
  let len = String.length text in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 6 with
  | 0 when len > 0 ->
      (* insert a token anywhere *)
      let k = Random.State.int rng (len + 1) in
      String.sub text 0 k ^ pick insertions ^ String.sub text k (len - k)
  | 1 when len > 0 ->
      (* delete a byte *)
      let k = Random.State.int rng len in
      String.sub text 0 k ^ String.sub text (k + 1) (len - k - 1)
  | 2 | 3 -> (
      (* replace one field of one row (or add/drop a field) *)
      match String.split_on_char '\n' text with
      | header :: columns :: (_ :: _ as rows) ->
          let rows = Array.of_list rows in
          let r = Random.State.int rng (Array.length rows) in
          let fields = Array.of_list (String.split_on_char ',' rows.(r)) in
          (match Random.State.int rng 5 with
          | 0 -> rows.(r) <- rows.(r) ^ "," ^ pick tokens
          | 1 -> rows.(r) <- String.concat "," (List.tl (Array.to_list fields))
          | _ ->
              fields.(Random.State.int rng (Array.length fields)) <- pick tokens;
              rows.(r) <- String.concat "," (Array.to_list fields));
          String.concat "\n" (header :: columns :: Array.to_list rows)
      | _ -> text)
  | 4 -> (
      (* swap two rows: ids out of order *)
      match String.split_on_char '\n' text with
      | header :: columns :: (_ :: _ :: _ as rows) ->
          let rows = Array.of_list rows in
          let a = Random.State.int rng (Array.length rows)
          and b = Random.State.int rng (Array.length rows) in
          let t = rows.(a) in
          rows.(a) <- rows.(b);
          rows.(b) <- t;
          String.concat "\n" (header :: columns :: Array.to_list rows)
      | _ -> text)
  | _ ->
      (* CRLF line ends on some lines *)
      String.concat "\n"
        (List.map
           (fun l -> if Random.State.bool rng then l ^ "\r" else l)
           (String.split_on_char '\n' text))

let differential_text seed =
  let rng = Random.State.make [| seed |] in
  let n = Random.State.int rng 12 in
  let value () =
    match Random.State.int rng 3 with
    | 0 -> float_of_int (1 + Random.State.int rng 1000)
    | 1 -> 0.001 +. Random.State.float rng 100.0
    | _ -> Float.ldexp 1.0 (Random.State.int rng 60)
  in
  let inst =
    Instance.of_ests ~m:(1 + Random.State.int rng 4)
      ~alpha:(Uncertainty.alpha (1.0 +. Random.State.float rng 3.0))
      ~sizes:(Array.init n (fun _ -> if Random.State.bool rng then 1.0 else value ()))
      (Array.init n (fun _ -> value ()))
  in
  let text = ref (Io.instance_to_string inst) in
  for _ = 0 to Random.State.int rng 4 do
    text := mutate rng !text
  done;
  !text

let prop_parser_matches_oracle =
  QCheck.Test.make ~name:"parser = frozen two-pass parser on mutated texts"
    ~count:2000
    (QCheck.make ~print:(fun seed -> Printf.sprintf "%S" (differential_text seed))
       QCheck.Gen.int)
    (fun seed ->
      let text = differential_text seed in
      match (outcome Io.instance_of_string text, outcome Io_oracle.instance_of_string text) with
      | Ok a, Ok b -> bit_identical a b
      | Error a, Error b -> a = b
      | _ -> false)

(* The same comparison on every token in every field position of a
   one- and a two-row file. *)
let parser_matches_oracle_on_tokens () =
  let header = "# usched-instance m=2 alpha=1.5\nid,est,size\n" in
  Array.iter
    (fun tok ->
      List.iter
        (fun row ->
          let text = header ^ row in
          let same =
            match (outcome Io.instance_of_string text, outcome Io_oracle.instance_of_string text) with
            | Ok a, Ok b -> bit_identical a b
            | Error a, Error b -> a = b
            | _ -> false
          in
          checkb (Printf.sprintf "%S" text) true same)
        [
          tok ^ ",1,1\n"; "0," ^ tok ^ ",1\n"; "0,1," ^ tok ^ "\n"; "0,1," ^ tok;
          "0,4,1\n" ^ tok ^ ",2,3\n"; "0,4,1\n1," ^ tok ^ ",3\n";
          "0,4,1\n1,2," ^ tok ^ "\n"; "0," ^ tok ^ "," ^ tok;
          "0,1," ^ tok ^ "\r\n"; "0,4,1\r\n1," ^ tok ^ ",3";
        ])
    tokens

(* The parser sizes its columns from the newline count, taken eight
   bytes at a time; any byte value may sit next to a '\n', and bytes
   of 0x80 and above must not read as one. *)
let prop_newline_count_matches_byte_loop =
  QCheck.Test.make ~name:"count_newlines = a byte loop, on arbitrary bytes" ~count:2000
    QCheck.(pair (int_bound 40) int)
    (fun (len, seed) ->
      let rng = Random.State.make [| seed |] in
      let text =
        String.init len (fun _ ->
            if Random.State.int rng 4 = 0 then '\n' else Char.chr (Random.State.int rng 256))
      in
      let bytes = ref 0 in
      String.iter (fun c -> if c = '\n' then incr bytes) text;
      Io.count_newlines text = !bytes)

(* --- The file reader: the parser over one fixed buffer --- *)

let with_text text f =
  let path = Filename.temp_file "usched_reader" ".usched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      f path)

(* The file read through a buffer of [buffer] bytes gives what the
   in-memory parser gives on its text: the same instance bit for bit,
   or the same message with the same line number. *)
let reads_like_string ~buffer path text =
  match
    ( outcome (fun path -> Io.load_instance_with ~buffer ~path) path,
      outcome Io.instance_of_string text )
  with
  | Ok a, Ok b -> bit_identical a b
  | Error a, Error b -> a = b
  | _ -> false

(* Every buffer size from one byte to the whole file: the first refill
   falls at every byte offset, so a row, the header and the column
   line each straddle it somewhere, and every size grows the buffer
   to the longest line. *)
let check_every_buffer what text =
  with_text text (fun path ->
      for buffer = 1 to String.length text + 1 do
        checkb (Printf.sprintf "%s, %d-byte buffer" what buffer) true
          (reads_like_string ~buffer path text)
      done)

let rows_straddle_refills () =
  let inst =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.75)
      ~sizes:[| 1.0; 2.5; 0.25; 7.0; 1e-3 |]
      [| 4.0; Float.pi; 0.125; 1.0 /. 3.0; 12345.678 |]
  in
  let text = Io.instance_to_string inst in
  check_every_buffer "written rows" text;
  (* General-path rows: a sign, an exponent, '_'. *)
  check_every_buffer "general rows"
    "# usched-instance m=2 alpha=1.5\nid,est,size\n0,+4,1\n1,2e1,0_5\n2,0x10,1\n"

let header_longer_than_buffer () =
  let module Failure = Usched_model.Failure in
  let module Speed_band = Usched_model.Speed_band in
  let m = 24 in
  let inst =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0)
      ~failure:(Failure.uniform ~m ~p:0.0123456789)
      ~speed_band:(Speed_band.uniform ~m ~lo:0.5 ~hi:1.25)
      [| 3.0; 1.5 |]
  in
  let text = Io.instance_to_string inst in
  let header = String.index text '\n' in
  checkb "the header outgrows the default-free buffers below" true (header > 256);
  with_text text (fun path ->
      List.iter
        (fun buffer ->
          checkb (Printf.sprintf "%d-byte buffer" buffer) true
            (reads_like_string ~buffer path text))
        [ 1; 2; 64; header - 1; header; header + 1; header + 2 ]);
  check_every_buffer "header only, no newline" (String.sub text 0 header);
  check_every_buffer "header and column line" (String.sub text 0 (header + 13))

let last_row_unterminated () =
  let inst = "# usched-instance m=2 alpha=1.5\nid,est,size\n" in
  check_every_buffer "plain last row" (inst ^ "0,4,1\n1,2.5,3");
  check_every_buffer "general last row" (inst ^ "0,4,1\n1,2.5e0,3");
  check_every_buffer "malformed last row" (inst ^ "0,4,1\n1,x,3");
  check_every_buffer "empty file" "";
  check_every_buffer "a lone newline" "\n"

let crlf_and_blank_lines () =
  let inst = "# usched-instance m=2 alpha=1.5\r\nid,est,size\r\n" in
  check_every_buffer "CRLF rows" (inst ^ "0,4,1\r\n1,2.5,3\r\n2,1,1\r\n");
  check_every_buffer "blank and whitespace lines"
    ("# usched-instance m=2 alpha=1.5\nid,est,size\n\n0,4,1\n  \n\t\r\n1,2.5,3\n\n\n");
  check_every_buffer "a malformed row after blank lines"
    ("# usched-instance m=2 alpha=1.5\nid,est,size\n0,4,1\n\n \n1,oops\n2,1,1\n")

(* Mutated texts (swapped, dropped, duplicated and CRLF rows, bad
   fields) through a random small buffer. *)
let prop_reader_matches_parser =
  QCheck.Test.make ~name:"load_instance = instance_of_string through any buffer"
    ~count:300
    QCheck.(pair int (int_range 1 48))
    (fun (seed, buffer) ->
      let text = differential_text seed in
      with_text text (fun path -> reads_like_string ~buffer path text))

let () =
  Alcotest.run "io"
    [
      ( "round trips",
        [
          Alcotest.test_case "instance" `Quick instance_round_trip;
          Alcotest.test_case "exact floats" `Quick instance_round_trip_exact_floats;
          Alcotest.test_case "file" `Quick file_round_trip;
          Alcotest.test_case "generated workloads" `Quick
            generated_workloads_round_trip;
          Alcotest.test_case "failure profile" `Quick failure_profile_round_trip;
          Alcotest.test_case "speed band" `Quick speed_band_round_trip;
          Alcotest.test_case "topology" `Quick topology_round_trip;
          Alcotest.test_case "writer golden strings" `Quick writer_golden_strings;
        ] );
      ( "validation",
        [
          Alcotest.test_case "wrong kind" `Quick rejects_wrong_kind;
          Alcotest.test_case "bad failure profile" `Quick
            rejects_bad_failure_profile;
          Alcotest.test_case "bad speed band" `Quick rejects_bad_speed_band;
          Alcotest.test_case "bad topology" `Quick rejects_bad_topology;
          Alcotest.test_case "malformed rows" `Quick rejects_malformed_rows;
          Alcotest.test_case "missing header" `Quick rejects_missing_header_field;
          Alcotest.test_case "error texts and line numbers" `Quick error_texts;
          Alcotest.test_case "non-finite columns" `Quick non_finite_columns;
          Alcotest.test_case "machine count cap" `Quick machine_cap;
          Alcotest.test_case "chunked save = string" `Quick chunked_save_equals_string;
          Alcotest.test_case "parser = oracle on field tokens" `Quick
            parser_matches_oracle_on_tokens;
        ] );
      ( "file reader",
        [
          Alcotest.test_case "rows straddle every refill" `Quick rows_straddle_refills;
          Alcotest.test_case "header longer than the buffer" `Quick
            header_longer_than_buffer;
          Alcotest.test_case "last row without a newline" `Quick last_row_unterminated;
          Alcotest.test_case "CRLF rows and blank lines" `Quick crlf_and_blank_lines;
          QCheck_alcotest.to_alcotest prop_reader_matches_parser;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_round_trip;
            prop_all_optional_fields_round_trip;
            prop_writer_matches_printf;
            prop_blank_lines_ignored;
            prop_writer_integers_match_printf;
            prop_parser_matches_oracle;
            prop_newline_count_matches_byte_loop;
          ] );
    ]
