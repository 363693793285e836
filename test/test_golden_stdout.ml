(* Golden stdout of the experiments that run on the shared sweep harness
   in [Runner] (declared columns, paired repetitions, the fault-replay
   cell): each runs through [Registry.execute] at a fixed seed, two
   repetitions and one domain, and its stdout must match
   [golden_stdout/<id>.stdout] byte for byte, with the CSV directory
   written as [<csv>]. This pins the table-only columns, which no CSV
   carries, and the tables of experiments that write no CSV at all
   (fault-tolerance). Every CSV an experiment writes must match the file
   of the same name in [golden_stdout/], or in [golden_csv/], whose
   files test_golden_csv already checks; the "[csv] wrote" lines in the
   stdout pin which CSVs are written.

   To regenerate after an intended change, for each id run
   `usched run ID --reps 2 --domains 1 --csv DIR > ID.stdout`, replace
   DIR by <csv> in that file, and copy it and DIR's CSVs that are not in
   test/golden_csv/ into test/golden_stdout/. *)

module Registry = Usched_experiments.Registry
module Runner = Usched_experiments.Runner

let ids =
  [
    "fig3";
    "fig6";
    "alpha-sweep";
    "fault-tolerance";
    "fault-sweep";
    "reliability";
    "recovery-sweep";
    "stream";
    "policy-sweep";
    "speed-robust";
    "locality";
    "hetero";
    "lb-search";
  ]

let golden_dir = "golden_stdout"
let csv_golden_dir = "golden_csv"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let files_with suffix dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort String.compare

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let temp_dir () =
  let dir = Filename.temp_file "usched_golden" "" in
  Sys.remove dir;
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

let matches_golden id () =
  let experiment =
    match Registry.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %s missing" id
  in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let config =
    { Runner.default_config with reps = 2; domains = 1; csv_dir = Some dir }
  in
  let out = capture_stdout (fun () -> Registry.execute config experiment) in
  Alcotest.(check string)
    "stdout"
    (read_file (Filename.concat golden_dir (id ^ ".stdout")))
    (replace_all ~sub:dir ~by:"<csv>" out);
  List.iter
    (fun f ->
      let expected =
        if Sys.file_exists (Filename.concat csv_golden_dir f) then
          Filename.concat csv_golden_dir f
        else Filename.concat golden_dir f
      in
      if not (Sys.file_exists expected) then
        Alcotest.failf "%s wrote %s, which has no golden file" id f;
      Alcotest.(check string)
        f (read_file expected)
        (read_file (Filename.concat dir f)))
    (files_with ".csv" dir)

let () =
  Alcotest.run "golden_stdout"
    [
      ( "experiments",
        List.map
          (fun id -> Alcotest.test_case id `Quick (matches_golden id))
          ids );
    ]
