(* The library's public surface equals what its callers use.

   Every [val] in a [lib/**/*.mli] must be referenced somewhere in
   [lib/], [bin/], [bench/], [e2ebench/] or [examples/] outside its own
   module (its [.ml] and [.mli]); every library module must be
   referenced outside its own files the same way. A reference counts
   only when it resolves to the exporting module: [M.v] where [M] names
   it through its library wrapper, a [module X = ...] alias, or, inside
   its own library, its bare name; or a bare [v] under an [open M],
   [let open M in] or [M.( ... )]. Comments and string literals do not
   count, and neither does [test/]: an export that only tests use is
   either deleted or listed in [allowlist] below with the reason it
   stays. A stale allowlist entry (the value is gone, or has gained a
   caller) fails too, so the list only ever shrinks.

   The same holds for optional arguments: every [?l:] in the type of an
   exported [val] must be passed, as [~l] or [?l], by an application of
   the value in some file of those trees outside its own module, or be
   listed in [option_allowlist] with its reason; stale entries fail
   alike. An application's labels are the ones at its own bracket depth
   up to the token that ends it ([in], [;], [|>], a closing bracket, a
   new top-level item...). The options of an allowlisted export are
   covered by its entry.

   A path in a type position (a [type] item's body, or what follows
   the [:] of an annotation or record field) names a type, not a value,
   and does not count.

   The resolver is lexical and errs toward counting: a local binding
   that shadows an opened value, or a record field named like a value,
   still counts as a reference, so the check can miss dead surface. *)

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
    ( "lib/core/lower_bounds",
      "packing_ceiling",
      "the histogram ceiling best certifies with; tests check it never falls \
       below the packing bound it stands for" );
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
      "exhaustive",
      "the exact corner search worst_case runs for small m; tests pin its corner \
       and its N-domain = 1-domain result" );
    ( "lib/core/speed_adversary",
      "critical_load",
      "the greedy adversary's slowdown priority, checked on a hand-computed case" );
    ( "lib/core/speed_robust",
      "classes",
      "the speed classes the placement hedges across; tests check one replica per \
       class and the shared-set bound against them" );
    ( "lib/desim/arrival",
      "trace",
      "constructor whose checks the trace:FILE reader shares; tests feed it \
       arrays to pin its validation and mean rate" );
    ( "lib/desim/schedule",
      "n",
      "task count of a schedule; tests walk every entry with it" );
    ( "lib/desim/timeline",
      "machine_stats",
      "the numbers render_stats prints, pinned bit for bit to an oracle" );
    ( "lib/experiments/pipeline",
      "run_instance",
      "run after the file is read; the ownership test holds the instance it \
       passes and compares its columns before and after the solve" );
    ( "lib/experiments/fig45",
      "example_instance",
      "the demonstration instance of figures 4 and 5; its task mix is checked" );
    ( "lib/model/bitset",
      "inter",
      "the frozen reference engine calls it, and that file must not change" );
    ( "lib/model/instance",
      "make",
      "the row-view constructor over Task.t records; library code builds \
       instances from columns, tests from hand-written rows" );
    ( "lib/model/task",
      "make",
      "the validated constructor of the Task.t row view Instance.make takes; \
       tests build rows with it" );
    ( "lib/model/io",
      "instance_of_string",
      "in-memory parser behind load_instance; the malformed-input tests feed it text" );
    ( "lib/model/io",
      "count_newlines",
      "the word-at-a-time count behind the parser's row bound; tests compare it \
       with a byte loop on arbitrary bytes" );
    ( "lib/model/io",
      "load_instance_with",
      "load_instance with a chosen starting buffer; tests shrink it so rows and \
       the header straddle every refill of a small file" );
    ( "lib/model/io",
      "instance_to_string",
      "in-memory writer behind save_instance; pins the file bytes" );
    ( "lib/report/json",
      "output_line",
      "the tree printer the trace sink's streamed bytes are checked against" );
    ( "lib/model/speed_band",
      "make",
      "the general band constructor the presets build on; tests build \
       arbitrary bands with it" );
    ( "lib/model/topology",
      "make",
      "the general constructor, whose checks the serialized topology grammar \
       shares; tests pin its validation and build arbitrary zone maps with it" );
    ( "lib/model/topology",
      "zoned",
      "constructor the topology grammar builds on; tests build zoned topologies with it" );
  ]

(* (module path, value, optional argument, why only tests pass it) *)
let option_allowlist =
  [
    ( "lib/core/dual_approx",
      "makespan",
      "epsilon",
      "the scheme's accuracy; tests check the (1+epsilon)-approximation at several \
       values and its validation, the library runs the default 1/3" );
    ( "lib/core/scenarios",
      "select",
      "domains",
      "shards the scenario replays; tests pin the N-domain = 1-domain result" );
    ( "lib/desim/engine",
      "run_traced",
      "speeds",
      "tests compare heterogeneous-speed event logs with the frozen reference" );
    ( "lib/desim/engine",
      "run_faulty_traced",
      "speeds",
      "tests compare heterogeneous-speed event logs with the frozen reference" );
    ( "lib/desim/schedule",
      "validate",
      "speeds",
      "the library validates identical-machine schedules only; tests check the \
       uniform-machine case, where a duration is the actual time over the speed" );
    ( "lib/experiments/reliability_sweep",
      "monte_carlo_survival",
      "trials",
      "tests check convergence to the exact survival at larger trial counts and \
       keep the N-domain = 1-domain property cheap with smaller ones" );
    ( "lib/model/instance",
      "of_ests",
      "failure",
      "tests build an instance and its failure profile in one call; library code \
       attaches it with with_failure" );
    ( "lib/model/instance",
      "of_ests",
      "speed_band",
      "tests build an instance and its speed band in one call; library code \
       attaches it with with_speed_band" );
    ( "lib/model/instance",
      "of_ests",
      "topology",
      "tests build an instance and its topology in one call; library code \
       attaches it with with_topology" );
    ( "lib/stats/bootstrap",
      "mean_interval",
      "resamples",
      "tests check coverage at other resample counts and the validation" );
    ( "lib/stats/bootstrap",
      "mean_interval",
      "confidence",
      "the interval's level; tests check it is validated, the library uses 95%" );
  ]

(* ---------------------------- lexing ---------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let is_op c =
  match c with
  | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '=' | '>' | '?'
  | '@' | '^' | '|' | '~' | '#' ->
      true
  | _ -> false

(* A token of an OCaml source: an identifier, an operator run (["."] on
   its own is a path dot), or a bracket (["[|"] and ["|]"] are one
   token each). [col0] marks a token at the start of a line, which in
   formatted code opens a new top-level item. *)
type token = { text : string; col0 : bool }

(* The tokens of an OCaml source, skipping comments (nested), string
   literals (quoted [{id|...|id}] ones too), character literals and
   number literals. *)
let tokens text =
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
  (* [{id|] at [i]: the index just past the matching [|id}]. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && text.[!j] = '|' then
      let close = "|" ^ String.sub text (i + 1) (!j - i - 1) ^ "}" in
      let rec find k =
        if k >= n then n else if at k close then k + String.length close else find (k + 1)
      in
      Some (find (!j + 1))
    else None
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
  let span i p =
    let j = ref i in
    while !j < n && p !j do
      incr j
    done;
    !j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let emit j =
        let col0 = i = 0 || text.[i - 1] = '\n' in
        go j ({ text = String.sub text i (j - i); col0 } :: acc)
      in
      if at i "(*" then go (comment_end (i + 2) 1) acc
      else if at i "[|" || at i "|]" then emit (i + 2)
      else
        match text.[i] with
        | '"' -> go (string_end (i + 1)) acc
        | '\'' -> go (char_end i) acc
        | '{' -> (
            match quoted_end i with Some j -> go j acc | None -> emit (i + 1))
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> emit (span i (fun j -> is_ident text.[j]))
        | '0' .. '9' ->
            (* 1_000, 0x1p-3, 1.5e-3: digits, letters, dots, and a sign
               right after an exponent letter *)
            let j =
              span i (fun j ->
                  match text.[j] with
                  | '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '_' | '.' -> true
                  | '+' | '-' -> (
                      match text.[j - 1] with 'e' | 'E' | 'p' | 'P' -> true | _ -> false)
                  | _ -> false)
            in
            go j acc
        | '(' | ')' | '[' | ']' | '}' | '`' | ';' | ',' -> emit (i + 1)
        | c when is_op c -> emit (span i (fun j -> is_op text.[j] && not (at j "|]")))
        | _ -> go (i + 1) acc
  in
  go 0 []

let is_word s = match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
let is_uident s = match s.[0] with 'A' .. 'Z' -> true | _ -> false
let is_lident s = match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false

(* The identifiers of an OCaml source. *)
let words text =
  List.filter_map (fun t -> if is_word t.text then Some t.text else None) (tokens text)

(* ---------------------------- resolving --------------------------- *)

(* What the resolver knows of the library: each library's wrapper name
   and directory, its modules as paths ("lib/core/strategy"), and the
   values each interface exports. *)
type universe = {
  libs : (string * string) list;  (** "Usched_core", "lib/core" *)
  modules : (string, unit) Hashtbl.t;
  exported : (string * string, unit) Hashtbl.t;
}

let universe ~libs ~modules ~exports =
  let table keys =
    let h = Hashtbl.create 1024 in
    List.iter (fun k -> Hashtbl.replace h k ()) keys;
    h
  in
  { libs; modules = table modules; exported = table exports }

type target = Lib of string | Mod of string

(* One binding in scope: [module X = path] (target [None] when the path
   is not a library module, so X shadows whatever it named), or an
   [open]. A binding dies when the bracket it sits in closes; a [local]
   one ([let open], [let module]) also dies at the next top-level item. *)
type binding = {
  depth : int;
  local : bool;
  kind : [ `Alias of string * target option | `Open of target ];
}

(* Tokens that start a new item, and so end a [type] item's body. *)
let item_keywords =
  [ "let"; "val"; "module"; "open"; "include"; "exception"; "external"; "end"; "class" ]

(* Tokens that, at an annotation's own bracket depth, end the
   expression or item it annotates. *)
let annotation_ends =
  [ "="; ";"; ";;"; ","; "in"; "|"; "then"; "else"; "do"; "done"; "with"; "and" ]
  @ item_keywords @ [ "type" ]

(* The references the tokens [toks] of a source at [self] make:
   [`Value (module, name)] for every [M.v] and every name an [open]
   brings in that a module in scope exports; [`Module m] for every path
   through [m]. A reference counts only when it resolves through the
   source's own library (siblings by bare name), a library wrapper
   ([Usched_core.Strategy]), an alias or an open. Each comes with the
   index of the value's name in [toks] ([-1] for a module). *)
let references_at u ~self toks =
  let n = Array.length toks in
  let tok k = if k >= 0 && k < n then toks.(k).text else "" in
  let dir = Filename.dirname self in
  let module_in d x =
    let path = Filename.concat d (String.uncapitalize_ascii x) in
    if Hashtbl.mem u.modules path then Some (Mod path) else None
  in
  let refs = ref [] in
  let scope = ref [] in
  let depth = ref 0 in
  let rec lookup x = function
    | [] -> (
        match module_in dir x with
        | Some t -> Some t
        | None -> Option.map (fun d -> Lib d) (List.assoc_opt x u.libs))
    | { kind = `Alias (y, t); _ } :: _ when y = x -> t
    | { kind = `Open (Lib d); _ } :: rest -> (
        match module_in d x with Some t -> Some t | None -> lookup x rest)
    | _ :: rest -> lookup x rest
  in
  let note = function Some (Mod m) -> refs := (`Module m, -1) :: !refs | _ -> () in
  (* The module path whose first name is at [k]: its target and the
     index of its last name. A capitalised name after a module is a
     constructor (no library module nests another), so the path ends
     there. *)
  let path k =
    let t = lookup (tok k) !scope in
    note t;
    let rec go t k =
      match t with
      | Some (Lib d) when tok (k + 1) = "." && is_uident (tok (k + 2)) ->
          let t' = module_in d (tok (k + 2)) in
          note t';
          go t' (k + 2)
      | _ -> (t, k)
    in
    go t k
  in
  let bind ~local kind = scope := { depth = !depth; local; kind } :: !scope in
  let rec opened name = function
    | [] -> None
    | { kind = `Open (Mod m); _ } :: _ when Hashtbl.mem u.exported (m, name) -> Some m
    | _ :: rest -> opened name rest
  in
  (* Type positions, where [M.x] names a type and no value: the body of
     a [type] item, up to the next item, and an annotation, from its
     [:] (not a label's) to what ends the expression it annotates. *)
  let in_type_item = ref false and annotation = ref (-1) in
  let in_type () = !in_type_item || !annotation >= 0 in
  let k = ref 0 in
  while !k < n do
    let i = !k in
    let t = toks.(i).text in
    if toks.(i).col0 then begin
      scope := List.filter (fun b -> not b.local) !scope;
      in_type_item := false;
      annotation := -1
    end;
    if List.mem t item_keywords then in_type_item := false;
    if !annotation = !depth && List.mem t annotation_ends then annotation := -1;
    k := i + 1;
    match t with
    | "type" when tok (i - 1) <> "(" -> in_type_item := true
    | (":" | ":>")
      when !annotation < 0
           && not (List.mem (tok (i - 2)) [ "~"; "?" ] && is_lident (tok (i - 1))) ->
        annotation := !depth
    | "(" | "[" | "[|" | "{" | "begin" | "struct" | "sig" | "object" -> incr depth
    | ")" | "]" | "|]" | "}" | "end" ->
        decr depth;
        if !depth < !annotation then annotation := -1;
        scope := List.filter (fun b -> b.depth <= !depth) !scope
    | ("open" | "include") when is_uident (tok (i + 1)) || tok (i + 1) = "!" ->
        let first = if tok (i + 1) = "!" then i + 2 else i + 1 in
        let target, last = path first in
        Option.iter (fun t -> bind ~local:(tok (i - 1) = "let") (`Open t)) target;
        k := last + 1
    | "module" when is_uident (tok (i + 1)) && tok (i + 2) = "=" ->
        let name = tok (i + 1) in
        let target =
          if is_uident (tok (i + 3)) then (
            let target, last = path (i + 3) in
            k := last + 1;
            target)
          else None
        in
        bind ~local:(tok (i - 1) = "let") (`Alias (name, target))
    | _ when is_uident t ->
        (* A path starts here unless it continues one ([A.B]) or names a
           polymorphic variant; [r.M.field] starts one. *)
        let continues = tok (i - 1) = "." && is_uident (tok (i - 2)) in
        if not (continues || tok (i - 1) = "`") then begin
          let target, last = path i in
          k := last + 1;
          match target with
          | Some (Mod m) when tok (last + 1) = "." ->
              let next = tok (last + 2) in
              if is_lident next then begin
                if not (in_type ()) then refs := (`Value (m, next), last + 2) :: !refs;
                k := last + 3
              end
              else if List.mem next [ "("; "["; "[|"; "{" ] then begin
                (* [M.( ... )]: M is open inside the bracket. *)
                scope := { depth = !depth + 1; local = false; kind = `Open (Mod m) } :: !scope;
                k := last + 2
              end
          | _ -> ()
        end
    | _ when is_lident t && tok (i - 1) <> "." && not (in_type ()) -> (
        match opened t !scope with Some m -> refs := (`Value (m, t), i) :: !refs | None -> ())
    | _ -> ()
  done;
  !refs

let references u ~self text =
  List.map fst (references_at u ~self (Array.of_list (tokens text)))

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
let in_tree path = Filename.concat Filename.parent_dir_name path

let files =
  roots
  |> List.concat_map (fun root -> sources (in_tree root))
  |> List.map (fun path ->
         let module_path =
           Filename.remove_extension path
           |> String.split_on_char '/'
           |> List.filter (fun s -> s <> Filename.parent_dir_name)
           |> String.concat "/"
         in
         (module_path, path, read_file path))

let is_lib module_path = String.starts_with ~prefix:"lib/" module_path

(* Every [(module, value)] a library interface declares. *)
let exports =
  List.concat_map
    (fun (module_path, path, text) ->
      if is_lib module_path && Filename.check_suffix path ".mli" then
        let rec go = function
          | "val" :: name :: rest -> (module_path, name) :: go rest
          | _ :: rest -> go rest
          | [] -> []
        in
        go (words text)
      else [])
    files

(* Each library's wrapper module, read from its dune file's [(name ..)]. *)
let libraries =
  Sys.readdir (in_tree "lib") |> Array.to_list |> List.sort compare
  |> List.filter_map (fun d ->
         let dune = Filename.concat (in_tree "lib") (Filename.concat d "dune") in
         if not (Sys.file_exists dune) then None
         else
           match words (read_file dune) with
           | "library" :: "name" :: name :: _ ->
               Some (String.capitalize_ascii name, "lib/" ^ d)
           | _ -> None)

let library =
  universe ~libs:libraries
    ~modules:(List.filter is_lib (List.map (fun (m, _, _) -> m) files))
    ~exports

(* Every [(module, value, label)] whose interface declares [?label:]
   in the value's type: the tokens after [val name] up to the next
   item. *)
let optionals =
  List.concat_map
    (fun (module_path, path, text) ->
      if is_lib module_path && Filename.check_suffix path ".mli" then
        let rec go value = function
          | { text = "val"; _ } :: { text = name; _ } :: rest -> go (Some name) rest
          | { text = "type" | "module" | "exception" | "external" | "include" | "end"; _ }
            :: rest ->
              go None rest
          | { text = "?"; _ } :: { text = label; _ } :: { text = ":"; _ } :: rest
            when is_lident label -> (
              match value with
              | Some v -> (module_path, v, label) :: go value rest
              | None -> go value rest)
          | _ :: rest -> go value rest
          | [] -> []
        in
        go None (tokens text)
      else [])
    files

(* The labels the application whose function sits at token [k] passes:
   every [~l] and [?l] at that token's bracket depth, up to the token
   that ends the expression there. Labels inside a bracket belong to a
   nested application. *)
let labels_after toks k =
  let n = Array.length toks in
  let tok i = if i < n then toks.(i).text else "" in
  let rec go i depth acc =
    if i >= n || toks.(i).col0 then acc
    else
      match toks.(i).text with
      | "(" | "[" | "[|" | "{" | "begin" -> go (i + 1) (depth + 1) acc
      | ")" | "]" | "|]" | "}" | "end" -> if depth = 0 then acc else go (i + 1) (depth - 1) acc
      | ";" | "," | "in" | "then" | "else" | "do" | "done" | "with" | "|" | "->" | "let"
      | "and" | "|>"
        when depth = 0 ->
          acc
      | ("~" | "?") when depth = 0 && is_lident (tok (i + 1)) ->
          go (i + 2) depth (tok (i + 1) :: acc)
      | _ -> go (i + 1) depth acc
  in
  go (k + 1) 0 []

(* What each module's files reference elsewhere, self-references
   dropped, and every [(module, value, label)] such a reference passes
   an argument to. *)
let used, passed =
  let table = Hashtbl.create 4096 and labels = Hashtbl.create 1024 in
  List.iter
    (fun (module_path, _, text) ->
      let toks = Array.of_list (tokens text) in
      List.iter
        (fun (r, k) ->
          match r with
          | `Value (m, v) when m <> module_path ->
              Hashtbl.replace table r ();
              List.iter (fun l -> Hashtbl.replace labels (m, v, l) ()) (labels_after toks k)
          | `Module m when m <> module_path -> Hashtbl.replace table r ()
          | _ -> ())
        (references_at library ~self:module_path toks))
    files;
  (table, labels)

let used_outside module_path name = Hashtbl.mem used (`Value (module_path, name))

let allowed module_path name =
  List.exists (fun (m, v, _) -> m = module_path && v = name) allowlist

let option_allowed module_path name label =
  List.exists (fun (m, v, l, _) -> m = module_path && v = name && l = label) option_allowlist

(* ---------------------------- checks ----------------------------- *)

let scan_sees_the_library () =
  Alcotest.(check bool)
    "the scan found the library's exports" true
    (List.length exports > 100);
  Alcotest.(check bool) "the scan found the libraries" true (List.length libraries >= 10)

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
           if is_lib module_path && not (Hashtbl.mem used (`Module module_path)) then
             Some module_path
           else None)
         files)
  in
  Alcotest.(check (list string)) "library modules nothing outside them names" [] dead

(* An optional argument no caller passes is a knob only tests turn: make
   it a constant, or list it in [option_allowlist]. The optional
   arguments of an allowlisted export are covered by its entry. *)
let every_optional_is_passed () =
  let dead =
    List.filter
      (fun (m, v, l) ->
        (not (Hashtbl.mem passed (m, v, l)))
        && (not (allowed m v))
        && not (option_allowed m v l))
      optionals
  in
  Alcotest.(check (list string))
    "optional arguments no caller outside their module passes (make a constant, or \
     allowlist with a reason)"
    []
    (List.map (fun (m, v, l) -> Printf.sprintf "%s.mli: val %s ?%s" m v l) dead)

let option_allowlist_is_current () =
  let stale =
    List.filter_map
      (fun (m, v, l, _) ->
        if not (List.mem (m, v, l) optionals) then
          Some (Printf.sprintf "%s.%s ?%s is no longer an exported option" m v l)
        else if Hashtbl.mem passed (m, v, l) then
          Some (Printf.sprintf "%s.%s ?%s now has a caller" m v l)
        else if allowed m v then
          Some (Printf.sprintf "%s.%s ?%s is covered by the export allowlist" m v l)
        else None)
      option_allowlist
  in
  Alcotest.(check (list string)) "stale option allowlist entries" [] stale

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

let pqueue_stays_in_test () =
  let named =
    List.filter
      (fun (module_path, _, text) ->
        (not (String.starts_with ~prefix:"e2ebench/" module_path))
        && (not (String.starts_with ~prefix:"examples/" module_path))
        &&
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
  let entries =
    List.map (fun (m, v, reason) -> (m ^ "." ^ v, reason)) allowlist
    @ List.map (fun (m, v, l, reason) -> (m ^ "." ^ v ^ " ?" ^ l, reason)) option_allowlist
  in
  let keys = List.map fst entries in
  Alcotest.(check int) "no duplicate entries" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (key, reason) ->
      Alcotest.(check bool) (key ^ " has a reason") true
        (String.length (String.trim reason) > 10))
    entries

(* The lexer itself: what it must skip and what it must keep. *)
let check_words name expected text =
  Alcotest.(check (list string)) name expected (words text)

let lexer_skips_comments_and_strings () =
  check_words "nested comment" [ "let"; "a"; "e" ] "let a = (* b (* c *) d *) e";
  check_words "string with an escaped quote" [ "x"; "y" ] {|x "f \" g" y|};
  check_words "a string inside a comment hides its close" [ "x" ]
    {|(* "*)" *) x|};
  check_words "unterminated comment runs to the end" [ "a" ] "a (* b c";
  check_words "quoted strings" [ "x"; "y" ] "x {|a \"b|} {id|c|} |d|id} y";
  check_words "number literals" [ "x"; "y" ] "x 1.5e-3 0x1p-4 1_000 y"

let lexer_reads_character_literals () =
  check_words "a quote character does not open a string" [ "let"; "c"; "in"; "x" ]
    {|let c = '"' in x|};
  check_words "escaped characters" [ "a"; "b"; "c"; "d" ]
    {|a '\'' b '\n' c '\123' d|};
  check_words "type variables keep their name" [ "a"; "list"; "b" ] "'a list -> 'b";
  check_words "primes inside identifiers" [ "x'"; "f''" ] "x' + f''"

(* The resolver, on a small library where two modules are named [Trace]
   and two modules export [merge]. *)
let toy =
  universe
    ~libs:
      [
        ("Usched_stats", "lib/stats");
        ("Usched_faults", "lib/faults");
        ("Usched_obs", "lib/obs");
        ("Usched_core", "lib/core");
        ("Usched_desim", "lib/desim");
      ]
    ~modules:
      [
        "lib/stats/summary";
        "lib/faults/trace";
        "lib/obs/trace";
        "lib/core/strategy";
        "lib/desim/engine";
        "lib/desim/event_heap";
      ]
    ~exports:
      [
        ("lib/stats/summary", "merge");
        ("lib/faults/trace", "merge");
        ("lib/faults/trace", "length");
        ("lib/obs/trace", "float");
        ("lib/core/strategy", "group");
        ("lib/desim/event_heap", "push");
      ]

let references_to ~self text =
  List.filter_map
    (function `Value (m, v) -> Some (m ^ "." ^ v) | `Module _ -> None)
    (references toy ~self text)

(* One case per resolver rule: its name, the module the text sits in,
   the exports it must count (once per use), and the text. *)
let resolver_cases =
  let main = "bin/main" in
  [
    (* Aliases. *)
    ( "an alias", main,
      [ "lib/stats/summary.merge" ],
      "module S = Usched_stats.Summary\nlet x = S.merge a b" );
    ( "a path through a library alias", main,
      [ "lib/core/strategy.group" ],
      "module Core = Usched_core\nlet s = Core.Strategy.group ~k:2" );
    ( "a qualified record field", main,
      [ "lib/core/strategy.group" ],
      "module Core = Usched_core\nlet f r = r.Core.Strategy.group" );
    ( "a sibling by bare name", "lib/desim/engine",
      [ "lib/desim/event_heap.push" ],
      "let f q = Event_heap.push q" );
    ("a sibling name outside its library", main, [], "let f q = Event_heap.push q");
    (* Opens. *)
    ( "a top-level open", main,
      [ "lib/faults/trace.length"; "lib/faults/trace.length" ],
      "open Usched_faults.Trace\nlet y = length t\nlet z = length u" );
    ( "let open ends with its item", main,
      [ "lib/faults/trace.length" ],
      "let f t =\n  let open Usched_faults.Trace in\n  length t\nlet g t = length t" );
    ( "let open ends with its bracket", main,
      [ "lib/faults/trace.length" ],
      "let f t = (let open Usched_faults.Trace in length t) + length t" );
    ( "a local open", main,
      [ "lib/core/strategy.group" ],
      "module Strategy = Usched_core.Strategy\nlet s = Strategy.(group ~k:2) and t = group" );
    ( "a local open across a line break", main,
      [ "lib/core/strategy.group"; "lib/core/strategy.group" ],
      "module Strategy = Usched_core.Strategy\n\
       let s =\n  Strategy.\n    [ group ~k:2; group ~k:3 ]\n\
       let t = group" );
    ( "an opened library", main,
      [ "lib/stats/summary.merge" ],
      "open Usched_stats\nlet x = Summary.merge a b" );
    (* Namesakes. *)
    ( "two modules named Trace", main,
      [ "lib/obs/trace.float"; "lib/faults/trace.length" ],
      "module Sink = Usched_obs.Trace\nmodule Trace = Usched_faults.Trace\n\
       let a = Sink.float s 1.0\nlet b = Trace.length t" );
    ( "a value named like another module's", main,
      [ "lib/stats/summary.merge" ],
      "module Summary = Usched_stats.Summary\nlet x = Summary.merge a b" );
    ( "an open brings in only what its module exports", main,
      [ "lib/stats/summary.merge" ],
      "open Usched_stats.Summary\nlet x = merge a (length b)" );
    ( "names inside comments and strings", main, [],
      "module Trace = Usched_faults.Trace\n(* Trace.merge *) let s = \"Trace.length\" \
       and q = {|Trace.merge|}" );
    ( "a shadowing alias", main, [],
      "module Trace = struct let merge = 1 end\nlet x = Trace.merge" );
    (* Type positions. *)
    ( "a type named like a value", main,
      [ "lib/stats/summary.merge" ],
      "module Summary = Usched_stats.Summary\n\
       type row = { s : Summary.merge; t : int }\n\
       let f (x : Summary.merge) : Summary.merge = Summary.merge x\n\
       let g ~k:(y : Summary.merge) = (y :> Summary.merge)" );
    ( "a value after a type item and an annotation", main,
      [ "lib/stats/summary.merge"; "lib/stats/summary.merge"; "lib/stats/summary.merge" ],
      "module Summary = Usched_stats.Summary\n\
       module M = struct\n  type t = Summary.merge\n  let a = Summary.merge\nend\n\
       let b : int = Summary.merge and c = f ~x:Summary.merge" );
  ]

(* The labels [labels_after] reads off the application of [f] in each
   text. *)
let label_cases =
  [
    ("labels after the function", [ "a"; "b" ], "let x = f ~a ?b:(Some 1) y");
    ("a nested application keeps its own", [ "a" ], "let x = f ~a:(g ~c) y");
    ("a pipeline ends the application", [ "a" ], "let x = y |> f ?a |> g ~b");
    ("in ends it", [ "a" ], "let x = f ~a in g ~b");
    ("a closing bracket ends it", [ "a" ], "let x = (f ~a) ~b");
    ("labels on the next line", [ "a"; "b" ], "let x =\n  f ~a\n    ~b y");
    ("a new item ends it", [], "let x = f\nlet y = g ~a");
  ]

let labels_test (name, expected, text) =
  Alcotest.test_case ("labels: " ^ name) `Quick (fun () ->
      let toks = Array.of_list (tokens text) in
      let rec find k = if toks.(k).text = "f" then k else find (k + 1) in
      Alcotest.(check (list string))
        name (List.sort compare expected)
        (List.sort compare (labels_after toks (find 0))))

let resolver_test (name, self, expected, text) =
  Alcotest.test_case ("resolver: " ^ name) `Quick (fun () ->
      Alcotest.(check (list string))
        name (List.sort compare expected)
        (List.sort compare (references_to ~self text)))

let () =
  Alcotest.run "surface"
    [
      ( "surface",
        [
          Alcotest.test_case "scan sees the library" `Quick scan_sees_the_library;
          Alcotest.test_case "every export has a caller" `Quick every_export_has_a_caller;
          Alcotest.test_case "every module has a caller" `Quick every_module_has_a_caller;
          Alcotest.test_case "allowlist is current" `Quick allowlist_is_current;
          Alcotest.test_case "every optional argument is passed" `Quick
            every_optional_is_passed;
          Alcotest.test_case "option allowlist is current" `Quick
            option_allowlist_is_current;
          Alcotest.test_case "allowlist is explained" `Quick allowlist_is_explained;
          Alcotest.test_case "Pqueue stays in test" `Quick pqueue_stays_in_test;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "skips comments and strings" `Quick
            lexer_skips_comments_and_strings;
          Alcotest.test_case "reads character literals" `Quick
            lexer_reads_character_literals;
        ]
        @ List.map resolver_test resolver_cases
        @ List.map labels_test label_cases );
    ]
