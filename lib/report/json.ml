(* JSON values, their compact rendering and a parser. Rendering goes
   into a [Buffer]: ints and floats through [Float_text]'s byte writers
   (floats as the first of [%.12g] and [%.17g] that parses back,
   decided on the exact 17 digits without printf or strtod except
   outside [Float_text]'s fixed-notation range), by way of one small
   scratch per call. Parsing is for tests and trace consumers and uses
   [float_of_string]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float f = if Float.is_finite f then Float f else Null

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [Float_text]'s writers take a byte position and a float column:
   one [add] renders every number of its tree through one scratch and
   one cell, passed down the recursion rather than captured. *)
let rec add_value buf scratch cell = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_subbytes buf scratch 0 (Float_text.write_int scratch 0 i)
  | Float f ->
      cell.(0) <- f;
      Buffer.add_subbytes buf scratch 0 (Float_text.write_json_float scratch 0 cell 0)
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      add_items buf scratch cell items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_fields buf scratch cell fields;
      Buffer.add_char buf '}'

and add_items buf scratch cell = function
  | [] -> ()
  | [ v ] -> add_value buf scratch cell v
  | v :: rest ->
      add_value buf scratch cell v;
      Buffer.add_char buf ',';
      add_items buf scratch cell rest

and add_fields buf scratch cell = function
  | [] -> ()
  | [ field ] -> add_field buf scratch cell field
  | field :: rest ->
      add_field buf scratch cell field;
      Buffer.add_char buf ',';
      add_fields buf scratch cell rest

and add_field buf scratch cell (k, v) =
  add_escaped buf k;
  Buffer.add_char buf ':';
  add_value buf scratch cell v

let add buf v = add_value buf (Bytes.create Float_text.room) (Array.make 1 0.0) v

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let output oc v = output_string oc (to_string v)

let output_line oc v =
  output oc v;
  output_char oc '\n'

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------- parsing ---------------------------------- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let add_utf8 buf code =
    (* BMP code point to UTF-8 bytes. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
              match hex4 () with
              | exception _ -> fail "bad \\u escape"
              | hi when hi >= 0xD800 && hi <= 0xDBFF ->
                  (* surrogate pair *)
                  if
                    !pos + 2 <= n && s.[!pos] = '\\'
                    && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    match hex4 () with
                    | exception _ -> fail "bad low surrogate"
                    | lo when lo >= 0xDC00 && lo <= 0xDFFF ->
                        let code =
                          0x10000
                          + ((hi - 0xD800) lsl 10)
                          + (lo - 0xDC00)
                        in
                        Buffer.add_char buf
                          (Char.chr (0xF0 lor (code lsr 18)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor (code land 0x3F)))
                    | _ -> fail "bad low surrogate"
                  end
                  else fail "lone high surrogate"
              | code -> add_utf8 buf code)
          | _ -> fail "bad escape");
          loop ())
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_int =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok)
    in
    if is_int then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "at byte %d: %s" at msg)

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)
