(* The library's public surface equals what its callers use.

   Every [val] in a [lib/**/*.mli] must be named, as a whole word,
   somewhere in [lib/], [bin/], [bench/], [e2ebench/] or [examples/]
   outside its own module (its [.ml] and [.mli]); every library module
   must be named outside its own files the same way. Comments and string
   literals do not count as references, and neither does [test/]: an
   export that only tests use is either deleted or listed in
   [allowlist] below with the reason it stays. A stale allowlist entry
   (the value is gone, or has gained a caller) fails too, so the list
   only ever shrinks.

   The match is by word, not by resolved path, so a name that is common
   elsewhere ([create], [length]) always passes; the check catches the
   values nothing mentions, which is what dead surface looks like. *)

let roots = [ "lib"; "bin"; "bench"; "e2ebench"; "examples" ]

(* (module path without extension, value, why it stays test-only) *)
let allowlist =
  [
    ( "lib/core/dual_approx",
      "feasible_at",
      "one dual test of the search; tests check its certificate directly" );
    ( "lib/core/fsort",
      "introsort",
      "only a direct call with depth 0 reaches the heapsort fallback" );
    ( "lib/core/minimax",
      "optimum_two_point",
      "building block of identical_minimax, checked against hand-computed optima" );
    ( "lib/core/minimax",
      "partition_value",
      "building block of identical_minimax, checked against hand-computed ratios" );
    ( "lib/core/minimax",
      "partitions",
      "the enumeration identical_minimax minimizes over, checked by counting" );
    ( "lib/core/placement",
      "memory_loads",
      "per-machine loads behind memory_max, pinned to an oracle and an \
       allocation budget" );
    ( "lib/core/placement",
      "replication_costs",
      "per-task costs behind replication_cost, pinned to an oracle and a \
       per-task budget" );
    ( "lib/core/speed_adversary",
      "critical_load",
      "the greedy adversary's slowdown priority, checked on a hand-computed case" );
    ( "lib/desim/engine",
      "run_stream_traced",
      "the stream loop's event log, compared event for event with the frozen \
       reference engine" );
    ( "lib/desim/timeline",
      "machine_stats",
      "the numbers render_stats prints, pinned bit for bit to an oracle" );
    ( "lib/experiments/fig45",
      "example_instance",
      "the demonstration instance of figures 4 and 5; its task mix is checked" );
    ( "lib/model/bitset",
      "inter",
      "the frozen reference engine calls it, and that file must not change" );
    ( "lib/model/io",
      "instance_of_string",
      "in-memory parser behind load_instance; the malformed-input tests feed it text" );
    ( "lib/model/io",
      "instance_to_string",
      "in-memory writer behind save_instance; pins the file bytes" );
    ( "lib/report/json",
      "output_line",
      "the tree printer the trace sink's streamed bytes are checked against" );
    ( "lib/model/topology",
      "zoned",
      "constructor the topology grammar builds on; tests build zoned topologies with it" );
  ]

(* ---------------------------- lexing ---------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* The identifiers of an OCaml source, skipping comments (nested) and
   string and character literals. *)
let words text =
  let n = String.length text in
  let at i s = i + String.length s <= n && String.sub text i (String.length s) = s in
  (* Index just past the string literal whose body starts at [i]. *)
  let rec string_end i =
    if i >= n then n
    else
      match text.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let rec comment_end i depth =
    if i >= n then n
    else if at i "*)" then if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if at i "(*" then comment_end (i + 2) (depth + 1)
    else if text.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  (* Index just past a character literal at [i] (['c'], ['\n'], ['\''],
     ['\123']), or [i + 1] for the quote of a type variable. *)
  let char_end i =
    if i + 2 < n && text.[i + 1] <> '\\' && text.[i + 2] = '\'' then i + 3
    else if i + 3 < n && text.[i + 1] = '\\' then
      match String.index_from_opt text (i + 3) '\'' with
      | Some j when j - i <= 5 -> j + 1
      | _ -> i + 1
    else i + 1
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if at i "(*" then go (comment_end (i + 2) 1) acc
    else
      match text.[i] with
      | '"' -> go (string_end (i + 1)) acc
      | '\'' -> go (char_end i) acc
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j = ref i in
          while !j < n && is_ident text.[!j] do
            incr j
          done;
          go !j (String.sub text i (!j - i) :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

(* --------------------------- the trees --------------------------- *)

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then sources path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

(* Paths are read from the test's build directory, where the trees sit
   one level up. *)
let files =
  roots
  |> List.concat_map (fun root -> sources (Filename.concat Filename.parent_dir_name root))
  |> List.map (fun path ->
         let module_path =
           Filename.remove_extension path
           |> String.split_on_char '/'
           |> List.filter (fun s -> s <> Filename.parent_dir_name)
           |> String.concat "/"
         in
         (module_path, path, words (read_file path)))

(* word -> the modules whose files name it *)
let users =
  let table = Hashtbl.create 4096 in
  List.iter
    (fun (module_path, _, ws) ->
      List.iter
        (fun w ->
          let seen = Option.value ~default:[] (Hashtbl.find_opt table w) in
          if not (List.mem module_path seen) then
            Hashtbl.replace table w (module_path :: seen))
        ws)
    files;
  table

let used_outside module_path word =
  List.exists (( <> ) module_path)
    (Option.value ~default:[] (Hashtbl.find_opt users word))

let is_lib module_path = String.starts_with ~prefix:"lib/" module_path

(* Every [(module, value)] a library interface declares. *)
let exports =
  List.concat_map
    (fun (module_path, path, ws) ->
      if is_lib module_path && Filename.check_suffix path ".mli" then
        let rec go = function
          | "val" :: name :: rest -> (module_path, name) :: go rest
          | _ :: rest -> go rest
          | [] -> []
        in
        go ws
      else [])
    files

let module_name module_path = String.capitalize_ascii (Filename.basename module_path)

let allowed module_path name =
  List.exists (fun (m, v, _) -> m = module_path && v = name) allowlist

(* ---------------------------- checks ----------------------------- *)

let scan_sees_the_library () =
  Alcotest.(check bool)
    "the scan found the library's exports" true
    (List.length exports > 100)

let every_export_has_a_caller () =
  let dead =
    List.filter
      (fun (module_path, name) ->
        (not (used_outside module_path name)) && not (allowed module_path name))
      exports
  in
  Alcotest.(check (list string))
    "exports with no caller outside their module (delete, or allowlist with a reason)"
    []
    (List.map (fun (m, v) -> Printf.sprintf "%s.mli: val %s" m v) dead)

let every_module_has_a_caller () =
  let dead =
    List.sort_uniq compare
      (List.filter_map
         (fun (module_path, _, _) ->
           let name = module_name module_path in
           if is_lib module_path && not (used_outside module_path name) then
             Some module_path
           else None)
         files)
  in
  Alcotest.(check (list string)) "library modules nothing outside them names" [] dead

let allowlist_is_current () =
  let stale =
    List.filter_map
      (fun (module_path, name, _) ->
        if not (List.mem (module_path, name) exports) then
          Some (Printf.sprintf "%s.%s is no longer exported" module_path name)
        else if used_outside module_path name then
          Some (Printf.sprintf "%s.%s now has a caller" module_path name)
        else None)
      allowlist
  in
  Alcotest.(check (list string)) "stale allowlist entries" [] stale

(* The lexer itself: what it must skip and what it must keep. *)
let check_words name expected text =
  Alcotest.(check (list string)) name expected (words text)

let lexer_skips_comments_and_strings () =
  check_words "nested comment" [ "let"; "a"; "e" ] "let a = (* b (* c *) d *) e";
  check_words "string with an escaped quote" [ "x"; "y" ] {|x "f \" g" y|};
  check_words "a string inside a comment hides its close" [ "x" ]
    {|(* "*)" *) x|};
  check_words "unterminated comment runs to the end" [ "a" ] "a (* b c"

let lexer_reads_character_literals () =
  check_words "a quote character does not open a string" [ "let"; "c"; "in"; "x" ]
    {|let c = '"' in x|};
  check_words "escaped characters" [ "a"; "b"; "c"; "d" ]
    {|a '\'' b '\n' c '\123' d|};
  check_words "type variables keep their name" [ "a"; "list"; "b" ] "'a list -> 'b";
  check_words "primes inside identifiers" [ "x'"; "f''" ] "x' + f''"

let pqueue_stays_in_test () =
  let named =
    List.filter
      (fun (module_path, path, _) ->
        (not (String.starts_with ~prefix:"e2ebench/" module_path))
        && (not (String.starts_with ~prefix:"examples/" module_path))
        &&
        let text = read_file path in
        let k = String.length "Pqueue" in
        let rec scan i =
          i + k <= String.length text && (String.sub text i k = "Pqueue" || scan (i + 1))
        in
        scan 0)
      files
  in
  Alcotest.(check (list string)) "lib, bin and bench files naming Pqueue" []
    (List.map (fun (_, path, _) -> path) named)

let allowlist_is_explained () =
  let keys = List.map (fun (m, v, _) -> (m, v)) allowlist in
  Alcotest.(check int) "no duplicate entries" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (m, v, reason) ->
      Alcotest.(check bool) (Printf.sprintf "%s.%s has a reason" m v) true
        (String.length (String.trim reason) > 10))
    allowlist

let () =
  Alcotest.run "surface"
    [
      ( "surface",
        [
          Alcotest.test_case "scan sees the library" `Quick scan_sees_the_library;
          Alcotest.test_case "every export has a caller" `Quick every_export_has_a_caller;
          Alcotest.test_case "every module has a caller" `Quick every_module_has_a_caller;
          Alcotest.test_case "allowlist is current" `Quick allowlist_is_current;
          Alcotest.test_case "allowlist is explained" `Quick allowlist_is_explained;
          Alcotest.test_case "Pqueue stays in test" `Quick pqueue_stays_in_test;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "skips comments and strings" `Quick
            lexer_skips_comments_and_strings;
          Alcotest.test_case "reads character literals" `Quick
            lexer_reads_character_literals;
        ] );
    ]
