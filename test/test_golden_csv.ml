(* Golden CSVs of the sweep experiments: alpha-sweep and the seven
   scenario sweeps run through [Registry.execute] at a fixed seed, two
   repetitions (each sweep raises that to its own floor) and one domain,
   and every CSV they write must match the committed file in
   [golden_csv/] byte for byte. The numbers come from paired-seed
   replays, so any change to seeding, draw order, cell bookkeeping or
   number formatting shows up here as a diff.

   To regenerate after an intended change, run the same experiments
   from the CLI: `usched run ID --reps 2 --domains 1 --csv DIR` and copy
   DIR/*.csv into test/golden_csv/. *)

module Registry = Usched_experiments.Registry
module Runner = Usched_experiments.Runner

let ids =
  [
    "alpha-sweep";
    "fault-sweep";
    "recovery-sweep";
    "policy-sweep";
    "stream";
    "speed-robust";
    "reliability";
    "locality";
  ]

let golden_dir = "golden_csv"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let csv_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".csv")
  |> List.sort String.compare

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let sweeps_match_golden () =
  let dir = Filename.temp_file "usched_golden" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let config =
    { Runner.default_config with reps = 2; domains = 1; csv_dir = Some dir }
  in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Registry.execute config e
      | None -> Alcotest.failf "experiment %s missing" id)
    ids;
  Alcotest.(check (list string))
    "same CSV files" (csv_files golden_dir) (csv_files dir);
  List.iter
    (fun f ->
      Alcotest.(check string)
        f
        (read_file (Filename.concat golden_dir f))
        (read_file (Filename.concat dir f)))
    (csv_files golden_dir)

let () =
  Alcotest.run "golden_csv"
    [
      ( "sweeps",
        [ Alcotest.test_case "CSV byte-identical" `Quick sweeps_match_golden ]
      );
    ]
