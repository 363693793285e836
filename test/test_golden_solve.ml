(* Golden stdout and JSONL trace of [usched solve], run in-process
   through [Pipeline.run]. Seven flag sets reach every branch of the
   command: the Gantt charts, speeds and a non-default policy, the
   faulty replay with every recovery knob, the open-system stream, the
   survival and speed-robustness summaries of a header band, failure
   profile and topology, the same summaries next to speeds and a policy
   (the one set whose stdout puts the survival and robustness lines
   between two lines that read the healthy replay), and a topology
   override. Each case's stdout
   must match [golden_solve/<case>.stdout] and its trace
   [golden_solve/<case>.jsonl] byte for byte, with the trace path in
   stdout written as <trace>.

   To regenerate after an intended change, run from test/:
     usched gen golden_solve/plain.usched --tasks 16 --machines 4 --seed 5
     usched gen golden_solve/banded.usched --tasks 16 --machines 6 --seed 3 \
       --failp uniform:0.1 --speed-band 0.2:0.5,0.2:0.5,1:2,1:2,4:8,4:8 \
       --topology zones:2:0.5
   then, for each case below, `usched solve FILE FLAGS --trace T >
   CASE.stdout` (without --trace where the case has none), replace T by
   <trace> in CASE.stdout, and copy it and T (as CASE.jsonl) into
   test/golden_solve/.

   Two checks need no golden file: a band given by --speed-band on a
   band-free copy of banded.usched must solve exactly like the same band
   in the header, phase 1 included; and a usage error (a bad flag, an
   instance without tasks, a placement the algorithm cannot meet) must
   come back as an [Error] naming its flag or file before anything is
   printed or traced. *)

module Pipeline = Usched_experiments.Pipeline
module Strategy = Usched_core.Strategy

let dir = "golden_solve"
let plain = Filename.concat dir "plain.usched"
let banded = Filename.concat dir "banded.usched"
let algo spec = Result.get_ok (Strategy.of_string spec)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every occurrence of [sub] in [s] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* (case, instance, options without the trace path, traced). The
   comment above each case gives its command line. *)
let cases =
  let d = { Pipeline.default with algo = algo "ls-group:2" } in
  [
    (* --algo ls-group:2 --gantt *)
    ("plain", plain, { d with gantt = true }, false);
    (* --algo ls-group:2 --speeds 1,2,1,0.5 --policy least-loaded *)
    ( "speeds_policy",
      plain,
      {
        d with
        speeds = Some [| 1.0; 2.0; 1.0; 0.5 |];
        policy = Usched_desim.Dispatch.Least_loaded_holder;
      },
      true );
    (* --algo ls-group:2 --fail-rate 0.5 --speculate 1.5 --recover 2
       --bandwidth 4 --detect-latency 0.5 --checkpoint 1 --gantt *)
    ( "faulty",
      plain,
      {
        d with
        fail_rate = 0.5;
        speculate = Some 1.5;
        recover = Usched_faults.Recovery.Fixed 2;
        bandwidth = 4.0;
        detect_latency = 0.5;
        checkpoint = 1.0;
        gantt = true;
      },
      true );
    (* --algo ls-group:2 --stream --arrival rate:0.8 --fail-rate 0.2
       --speculate 1.5 --gantt *)
    ( "stream",
      plain,
      {
        d with
        stream = true;
        arrival = Usched_desim.Arrival.poisson ~rate:0.8;
        fail_rate = 0.2;
        speculate = Some 1.5;
        gantt = true;
      },
      true );
    (* banded.usched --algo speedrobust:2 --target-reliability 0.9 *)
    ( "robust",
      banded,
      {
        Pipeline.default with
        algo = algo "speedrobust:2";
        target_reliability = Some 0.9;
      },
      true );
    (* banded.usched --algo speedrobust:2 --target-reliability 0.9
       --speeds 1,2,1,1,0.5,1 --policy least-loaded *)
    ( "robust_speeds_policy",
      banded,
      {
        Pipeline.default with
        algo = algo "speedrobust:2";
        target_reliability = Some 0.9;
        speeds = Some [| 1.0; 2.0; 1.0; 1.0; 0.5; 1.0 |];
        policy = Usched_desim.Dispatch.Least_loaded_holder;
      },
      true );
    (* --algo ls-group:2 --topology zones:2:0.5 *)
    ("topology", plain, { d with topology = Some "zones:2:0.5" }, false);
  ]

let temp_dir () =
  let dir = Filename.temp_file "usched_solve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

(* Runs [f] with stdout sent to a file, and returns what it printed. *)
let capture_stdout f =
  let path = Filename.temp_file "usched_stdout" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  read_file path

(* Stdout and trace (empty without one) of one solve; the trace path in
   stdout is written as <trace>. *)
let solve ?(traced = true) options file =
  let tmp = temp_dir () in
  let path = Filename.concat tmp "trace.jsonl" in
  let options =
    if traced then { options with Pipeline.trace = Some path } else options
  in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir tmp)
  @@ fun () ->
  let out =
    capture_stdout (fun () ->
        match Pipeline.run options file with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "solve %s: %s" file msg)
  in
  let out = replace_all ~sub:path ~by:"<trace>" out in
  (out, if traced then read_file path else "")

let matches_golden (case, file, options, traced) () =
  let out, trace = solve ~traced options file in
  let golden ext = read_file (Filename.concat dir (case ^ ext)) in
  Alcotest.(check string) "stdout" (golden ".stdout") out;
  if traced then Alcotest.(check string) "trace" (golden ".jsonl") trace

(* The band moves from the header to the flag: everything the run prints
   or traces must stay the same, the file name aside. *)
let speed_band_flag_reaches_phase1 () =
  let band = "0.2:0.5,0.2:0.5,1:2,1:2,4:8,4:8" in
  let tmp = temp_dir () in
  let bare = Filename.concat tmp "bare.usched" in
  Fun.protect ~finally:(fun () ->
      Sys.remove bare;
      Sys.rmdir tmp)
  @@ fun () ->
  let instance = Usched_model.Io.load_instance ~path:banded in
  Usched_model.Io.save_instance ~path:bare
    (Usched_model.Instance.with_speed_band instance None);
  let options =
    {
      Pipeline.default with
      algo = algo "speedrobust:2";
      target_reliability = Some 0.9;
    }
  in
  let header_out, header_trace = solve options banded in
  let flag_out, flag_trace =
    solve { options with speed_band = Some band } bare
  in
  let unname file text = replace_all ~sub:file ~by:"<file>" text in
  Alcotest.(check string)
    "stdout" (unname banded header_out) (unname bare flag_out);
  Alcotest.(check string)
    "trace" (unname banded header_trace) (unname bare flag_trace)

(* A usage error is an [Error] naming the flag, returned before the
   run prints a line or creates its trace. [run] solves plain.usched
   unless the case says otherwise. *)
let usage_error ?(run = fun options -> Pipeline.run options plain) ~flag
    options () =
  let tmp = temp_dir () in
  let path = Filename.concat tmp "trace.jsonl" in
  let arrivals = Filename.concat tmp "arrivals.txt" in
  Out_channel.with_open_bin arrivals (fun oc -> output_string oc "0.5\n1\n");
  Fun.protect ~finally:(fun () ->
      Sys.remove arrivals;
      Sys.rmdir tmp)
  @@ fun () ->
  let options = options arrivals in
  let options =
    if options.Pipeline.trace = None then { options with trace = Some path }
    else options
  in
  let result = ref (Ok ()) in
  let out = capture_stdout (fun () -> result := run options) in
  (match !result with
  | Ok () -> Alcotest.fail "accepted"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" msg flag)
        true
        (String.starts_with ~prefix:flag msg));
  Alcotest.(check string) "stdout" "" out;
  Alcotest.(check bool) "no trace" false (Sys.file_exists path)

(* (flag, options given a two-line arrival trace file); a case without
   a trace path gets one in a fresh directory *)
let usage_errors =
  let d = Pipeline.default in
  [
    ("--fail-rate", fun _ -> { d with fail_rate = 2.0 });
    ("--speeds", fun _ -> { d with speeds = Some [| 1.0; 2.0 |] });
    ("--speed-band", fun _ -> { d with speed_band = Some "1:2" });
    ("--algo", fun _ -> { d with algo = algo "ls-group:9" });
    ( "--arrival",
      fun file ->
        let arrival = Usched_desim.Arrival.of_string ("trace:" ^ file) in
        { d with stream = true; arrival = Result.get_ok arrival } );
    (* the trace's directory would sit under a regular file *)
    ( "--trace",
      fun file -> { d with trace = Some (Filename.concat file "x/t.jsonl") } );
    (* plain.usched's 16 tasks hold more data than 4 machines of budget 1,
       and 4 replicas cannot bring a task's loss probability to 6.25e-11 *)
    ("--algo memory:1", fun _ -> { d with algo = algo "memory:1" });
    ( "--algo reliability:0.999999999",
      fun _ -> { d with algo = algo "reliability:0.999999999" } );
  ]

(* An instance without tasks, as [usched gen] used to write for
   --tasks 0: nothing to place, bound or crash. *)
let no_tasks () =
  let empty =
    Usched_model.Workload.generate (Usched_model.Workload.Identical 1.0) ~n:0
      ~m:3
      ~alpha:(Usched_model.Uncertainty.alpha 1.5)
      (Usched_prng.Rng.create ~seed:1 ())
  in
  let run options = Pipeline.run_instance options ~file:"empty.usched" empty in
  List.iter
    (fun options -> usage_error ~run ~flag:"empty.usched" options ())
    Pipeline.
      [
        (fun _ -> default);
        (fun _ -> { default with speculate = Some 1.5 });
        (fun _ -> { default with stream = true; fail_rate = 0.2 });
        (fun _ -> { default with speed_band = Some "1:2,1:2,1:2" });
      ]

let () =
  Alcotest.run "golden_solve"
    [
      ( "solve",
        List.map
          (fun ((case, _, _, _) as c) ->
            Alcotest.test_case case `Quick (matches_golden c))
          cases
        @ [
            Alcotest.test_case "speed band flag reaches phase 1" `Quick
              speed_band_flag_reaches_phase1;
          ] );
      ( "usage errors",
        List.map
          (fun (flag, options) ->
            Alcotest.test_case flag `Quick (usage_error ~flag options))
          usage_errors
        @ [ Alcotest.test_case "no tasks" `Quick no_tasks ] );
    ]
