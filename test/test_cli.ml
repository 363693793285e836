(* The [usched] command line on bad input: [solve] on malformed instance
   files and [gen] on bad flag values are usage errors (exit 2) naming
   the offending line or flag, never an uncaught exception. Runs the
   built binary. *)

let usched = Filename.concat Filename.parent_dir_name "bin/main.exe"

(* Exit code and stderr of [usched solve] on an instance file holding
   [contents]. *)
let solve contents =
  let input = Filename.temp_file "usched_cli" ".usched" in
  let errors = Filename.temp_file "usched_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ input; errors ])
    (fun () ->
      Out_channel.with_open_bin input (fun oc -> output_string oc contents);
      let code =
        Sys.command
          (Printf.sprintf "%s solve %s >/dev/null 2>%s" (Filename.quote usched)
             (Filename.quote input) (Filename.quote errors))
      in
      (code, In_channel.with_open_bin errors In_channel.input_all))

(* Exit code and stderr of [usched gen] with [args]. *)
let gen args =
  let output = Filename.temp_file "usched_cli" ".usched" in
  let errors = Filename.temp_file "usched_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ output; errors ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s gen %s %s >/dev/null 2>%s" (Filename.quote usched)
             (Filename.quote output)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote errors))
      in
      (code, In_channel.with_open_bin errors In_channel.input_all))

let contains text fragment =
  let k = String.length fragment in
  let rec scan i =
    i + k <= String.length text && (String.sub text i k = fragment || scan (i + 1))
  in
  scan 0

let rejected ~line contents () =
  let code, stderr = solve contents in
  Alcotest.(check int) "usage error exit code" 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "message names line %d: %S" line stderr)
    true
    (contains stderr (Printf.sprintf "Io: line %d:" line));
  Alcotest.(check bool) "no uncaught exception" false (contains stderr "exception")

let accepted () =
  let code, stderr =
    solve "# usched-instance m=2 alpha=2\nid,est,size\n0,4,1\n1,3,1\n2,2,1\n"
  in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" stderr) 0 code

let gen_rejected ~flag args () =
  let code, stderr = gen args in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" stderr) 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "message names %s: %S" flag stderr)
    true (contains stderr flag);
  Alcotest.(check bool) "no uncaught exception" false (contains stderr "exception")

let header rest = Printf.sprintf "# usched-instance %s\nid,est,size\n0,4,1\n" rest

let () =
  Alcotest.run "cli"
    [
      ( "solve",
        [
          Alcotest.test_case "well-formed instance" `Quick accepted;
          Alcotest.test_case "non-integer m" `Quick
            (rejected ~line:1 (header "m=abc alpha=2"));
          Alcotest.test_case "zero machines" `Quick
            (rejected ~line:1 (header "m=0 alpha=2"));
          Alcotest.test_case "machine count past the cap" `Quick
            (rejected ~line:1 (header "m=4000000000 alpha=2"));
          Alcotest.test_case "alpha below 1" `Quick
            (rejected ~line:1 (header "m=2 alpha=0.5"));
          Alcotest.test_case "bad row" `Quick
            (rejected ~line:4 (header "m=2 alpha=2" ^ "1,abc,1\n"));
          Alcotest.test_case "infinite estimate" `Quick
            (rejected ~line:3 "# usched-instance m=2 alpha=2\nid,est,size\n0,inf,1\n1,2,1\n");
          Alcotest.test_case "nan size" `Quick
            (rejected ~line:4 (header "m=2 alpha=2" ^ "1,2,nan\n"));
          Alcotest.test_case "infinite size" `Quick
            (rejected ~line:4 (header "m=2 alpha=2" ^ "1,2,inf\n"));
        ] );
      ( "gen",
        List.map
          (fun (name, flag, args) ->
            Alcotest.test_case name `Quick (gen_rejected ~flag args))
          [
            ("alpha below 1", "--alpha", [ "--alpha"; "0.5" ]);
            ("zero machines", "--machines", [ "--machines"; "0" ]);
            ("machines past the cap", "--machines", [ "--machines"; "4000000000" ]);
            ("empty uniform range", "--workload", [ "--workload"; "uniform:5:1" ]);
            ("negative mean", "--workload", [ "--workload"; "exponential:-1" ]);
            ("non-numeric bound", "--workload", [ "--workload"; "uniform:abc:1" ]);
            ( "failure profile of the wrong length",
              "--failp",
              [ "--machines"; "3"; "--failp"; "0.1,0.2" ] );
          ] );
    ]
