(* Instance files: a header line, a column line, one [id,est,size] row
   per task. The writer prints ids and floats ([%.17g]) and the parser
   reads plain decimal fields through [Float_text], exactly, without
   printf, strtod or a substring per field; every other field takes
   [int_of_string_opt]/[float_of_string] and their errors. Both stream:
   the writer through one fixed chunk of bytes, the parser in one
   pass straight into the instance's two columns, and the file reader
   through one fixed buffer it hands the parser a chunk at a time. *)

module Float_text = Usched_report.Float_text

let parse_error line_number message =
  failwith (Printf.sprintf "Io: line %d: %s" line_number message)

let header_line instance =
  let failp =
    match Instance.failure instance with
    | None -> ""
    | Some f -> " failp=" ^ Failure.to_string f
  in
  let speedband =
    match Instance.speed_band instance with
    | None -> ""
    | Some b -> " speedband=" ^ Speed_band.to_string b
  in
  let topology =
    match Instance.topology instance with
    | None -> ""
    | Some tp -> " topology=" ^ Topology.to_string tp
  in
  Printf.sprintf "# usched-instance m=%d alpha=%.17g%s%s%s" (Instance.m instance)
    (Instance.alpha_value instance) failp speedband topology

let parse_header line =
  let prefix = "# usched-instance " in
  let plen = String.length prefix in
  if String.length line < plen || String.sub line 0 plen <> prefix then
    parse_error 1 (Printf.sprintf "expected a '%s' header" prefix);
  let fields =
    String.split_on_char ' ' (String.sub line plen (String.length line - plen))
  in
  let lookup_opt key =
    let key_eq = key ^ "=" in
    match
      List.find_opt
        (fun f ->
          String.length f > String.length key_eq
          && String.sub f 0 (String.length key_eq) = key_eq)
        fields
    with
    | Some f ->
        Some
          (String.sub f (String.length key_eq)
             (String.length f - String.length key_eq))
    | None -> None
  in
  let lookup key =
    match lookup_opt key with
    | Some v -> v
    | None -> parse_error 1 (Printf.sprintf "missing %s= in header" key)
  in
  let m =
    match int_of_string_opt (lookup "m") with
    | Some m when m >= 1 && m <= Instance.max_machines -> m
    | Some m when m > Instance.max_machines ->
        parse_error 1
          (Printf.sprintf "m=%d exceeds the cap of %d machines" m
             Instance.max_machines)
    | Some _ | None -> parse_error 1 "m= must be an integer >= 1"
  in
  let alpha =
    match float_of_string_opt (lookup "alpha") with
    | Some a when Float.is_finite a && a >= 1.0 -> a
    | Some _ | None -> parse_error 1 "alpha= must be a finite number >= 1"
  in
  (* Each optional field goes through its grammar's one parser, which
     also checks that it covers [m] machines. *)
  let field key of_spec =
    Option.map
      (fun raw ->
        match of_spec ~m raw with
        | Ok v -> v
        | Error msg -> parse_error 1 (Printf.sprintf "bad %s=: %s" key msg))
      (lookup_opt key)
  in
  let failure = field "failp" Failure.of_spec in
  let speed_band = field "speedband" Speed_band.of_spec in
  let topology = field "topology" Topology.of_spec in
  (m, Uncertainty.alpha alpha, failure, speed_band, topology)

(* One row writer for both the file and the string: rows go into a
   fixed chunk of [chunk] bytes (and the room for one more row), handed
   to [output] whenever a row ends at [chunk] bytes or more, so the
   channel lock is taken once per chunk rather than once per field. Ids
   and floats go in through [Float_text]'s byte writers, which read each
   float out of its column: no string and no boxed float per field. *)
let chunk = 65536

(* The room one row needs: a 19-digit id, two 24-byte floats, three
   separators, and the slack a writer's last store runs past its
   text. *)
let row_room = 96

let write_instance ~output instance =
  let head = header_line instance ^ "\nid,est,size\n" in
  output (Bytes.unsafe_of_string head) 0 (String.length head);
  let ests = Instance.ests instance and sizes = Instance.sizes instance in
  let b = Bytes.create (chunk + row_room) in
  let pos = ref 0 in
  for j = 0 to Instance.n instance - 1 do
    let p = Float_text.write_int b !pos j in
    Bytes.unsafe_set b p ',';
    let p = Float_text.write_g17 b (p + 1) ests j in
    Bytes.unsafe_set b p ',';
    let p = Float_text.write_g17 b (p + 1) sizes j in
    Bytes.unsafe_set b p '\n';
    pos := p + 1;
    if !pos >= chunk then begin
      output b 0 !pos;
      pos := 0
    end
  done;
  output b 0 !pos

let instance_to_string instance =
  let buffer = Buffer.create (64 + (24 * Instance.n instance)) in
  write_instance ~output:(Buffer.add_subbytes buffer) instance;
  Buffer.contents buffer

(* Parsing fills the instance's two float columns in one pass over the
   rows, building no list of lines and no [Task.t]. Line [k] (1-based)
   is the [k]-th '\n'-separated segment; the header is line 1, the
   column line 2, and every later line that is not blank (all
   [String.trim] whitespace) is a row. Errors name the physical line.

   A row the writer prints, [digits,digits[.digits],digits[.digits]]
   up to its '\n' or the end of the text, is read in one scan
   ([plain_row]): the id's digits and each float field's significant
   digits, their count and the digits after the point are accumulated
   as the bytes go by, and [Float_text.store_decimal] decides each
   float by the exact rules [Float_text.parse_into] uses. Any other row
   (a sign, an exponent, '_', whitespace, '\r', more than 17
   significant digits, an id that is not the row's, a zero estimate)
   takes the general path ([general_row]), which scans it again.

   There an id of at most 18 plain digits is converted in place, and so
   is a float field of plain [digits[.digits]] that
   [Float_text.parse_into] decides exactly (every [%.17g] the writer
   prints without an exponent); both conversions return what
   [int_of_string_opt] and [float_of_string] return. Every other field
   goes through those, so signs, '_', [0x], exponents, [inf]/[nan] and
   '\r' are accepted or refused as before, with the same message. A
   value that is not finite is then refused like [Task.make] refuses
   it. *)

(* The end of the plain digits [digits[.digits]] from [start] (the
   first byte that is neither a digit nor the field's one inner point),
   after [Float_text.store_decimal] stored their value in
   [column.(row)]; [-1] when the field is empty, has a point first,
   last or twice, has more than 17 significant digits, or is not
   decided exactly. *)
let plain_decimal text start len column row =
  let i = ref start and d = ref 0 and n = ref 0 and q = ref (-1) in
  let scanning = ref true and ok = ref true in
  while !scanning && !i < len do
    (match String.unsafe_get text !i with
    | '0' .. '9' as c ->
        if !q >= 0 then incr q;
        if !n > 0 || c <> '0' then begin
          incr n;
          d := (!d * 10) + Char.code c - 48
        end;
        incr i
    | '.' when !q < 0 && !i > start ->
        q := 0;
        incr i
    | '.' ->
        ok := false;
        scanning := false
    | _ -> scanning := false)
  done;
  let stop = !i in
  if (not !ok) || stop = start || !n > 17 || !q = 0 then -1
  else if Float_text.store_decimal !d !n (if !q < 0 then 0 else !q) column row
  then stop
  else -1

(* The end of row [row] read in one scan when it is
   [digits,digits[.digits],digits[.digits]] up to a '\n' or [len], its
   id (at most 18 digits) is [row] and its estimate is not zero: the
   position of the '\n', or [len]. Both fields are then stored; [-1]
   otherwise, with the columns' [row] entries left to the general
   path. *)
let plain_row text start len ests sizes row =
  let i = ref start and id = ref 0 and scanning = ref true in
  while !scanning && !i < len do
    match String.unsafe_get text !i with
    | '0' .. '9' as c ->
        id := (!id * 10) + Char.code c - 48;
        incr i
    | _ -> scanning := false
  done;
  let c0 = !i in
  if
    c0 = start || c0 - start > 18 || !id <> row || c0 >= len
    || String.unsafe_get text c0 <> ','
  then -1
  else
    let c1 = plain_decimal text (c0 + 1) len ests row in
    if c1 < 0 || c1 >= len || String.unsafe_get text c1 <> ',' then -1
    else
      let stop = plain_decimal text (c1 + 1) len sizes row in
      if
        stop < 0
        || (stop < len && String.unsafe_get text stop <> '\n')
        || not (ests.(row) > 0.0)
      then -1
      else stop

let rec digits_from text k stop acc =
  if k >= stop then acc
  else
    match String.unsafe_get text k with
    | '0' .. '9' as c -> digits_from text (k + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* The value of the plain digits [text.[start .. stop-1]], or [-1] when
   the field is empty, longer than 18 digits or has a non-digit. *)
let plain_digits text start stop =
  let len = stop - start in
  if len < 1 || len > 18 then -1 else digits_from text start stop 0

let field text start stop = String.sub text start (stop - start)

let float_field line name text start stop =
  let raw = field text start stop in
  match float_of_string raw with
  | v -> v
  | exception Failure _ -> parse_error line (Printf.sprintf "bad %s %S" name raw)

(* Task [k] must carry id [k]. *)
let check_id line k text start stop =
  let v = plain_digits text start stop in
  if v <> k then
    let raw = field text start stop in
    match if v >= 0 then Some v else int_of_string_opt raw with
    | Some v when v = k -> ()
    | Some v ->
        parse_error line (Printf.sprintf "id %d out of order (expected %d)" v k)
    | None -> parse_error line (Printf.sprintf "bad id %S" raw)

let is_space = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

(* The '\n' bytes of [text], eight at a time. XOR with [newlines]
   turns each '\n' into a zero byte. For a byte [x], [(x land 0x7F) +
   0x7F] sets the byte's top bit unless its low seven bits are zero,
   and never carries out of the byte; or-ing [x] sets it for
   [x >= 0x80] too, so the complement's top bit is set exactly on the
   zero bytes, and the multiply adds those bits up in the top byte.
   The last [length mod 8] bytes are counted one at a time. *)
let newlines = 0x0A0A0A0A0A0A0A0AL
let low7 = 0x7F7F7F7F7F7F7F7FL
let top_bits = 0x8080808080808080L
let byte_sum = 0x0101010101010101L

let count_newlines_in text start stop =
  let words = (stop - start) / 8 in
  let count = ref 0 in
  for w = 0 to words - 1 do
    let x = Int64.logxor (String.get_int64_le text (start + (8 * w))) newlines in
    let spread = Int64.logor (Int64.add (Int64.logand x low7) low7) x in
    let zeros = Int64.logand (Int64.lognot spread) top_bits in
    count :=
      !count
      + Int64.to_int
          (Int64.shift_right_logical
             (Int64.mul (Int64.shift_right_logical zeros 7) byte_sum)
             56)
  done;
  for k = start + (8 * words) to stop - 1 do
    if String.unsafe_get text k = '\n' then incr count
  done;
  !count

let count_newlines text = count_newlines_in text 0 (String.length text)

(* An upper bound on the row count of a text with [newlines] '\n' bytes,
   exact when no line after the column line is blank: every row but a
   final unterminated one ends with a '\n', and lines 1 and 2 end with
   one each. *)
let max_rows ~newlines ~unterminated =
  Stdlib.max 0 (newlines - 2 + if unterminated then 1 else 0)

(* Start of line 3, or [len] when there is none. *)
let rows_start text =
  let len = String.length text in
  match String.index_opt text '\n' with
  | None -> len
  | Some e -> (
      match String.index_from_opt text (e + 1) '\n' with
      | None -> len
      | Some e -> e + 1)

let header text =
  match String.index_opt text '\n' with
  | Some e -> String.sub text 0 e
  | None -> text

(* The general path for the line from [start]: row [!k] when it is not
   blank, read field by field with every check and message. Returns the
   line's end. *)
let general_row text start len line_no k ests sizes =
  (* One scan of the line: its end, its first two commas, its comma
     count and whether anything but whitespace is on it. *)
  let stop = ref start and commas = ref 0 and blank = ref true in
  let c0 = ref start and c1 = ref start in
  while !stop < len && String.unsafe_get text !stop <> '\n' do
    let c = String.unsafe_get text !stop in
    if c = ',' then begin
      if !commas = 0 then c0 := !stop else if !commas = 1 then c1 := !stop;
      incr commas;
      blank := false
    end
    else if !blank && not (is_space c) then blank := false;
    incr stop
  done;
  let stop = !stop in
  if not !blank then begin
    if !commas <> 2 then parse_error line_no "expected 3 comma-separated fields";
    let row = !k and c0 = !c0 and c1 = !c1 in
    check_id line_no row text start c0;
    (* The fields after the id are read right to left ([size], then
       [estimate]), so a row with several bad fields reports the id
       or else the rightmost one. [parse_into] stores straight into
       the column; only a fallback field's value is boxed. *)
    if not (Float_text.parse_into text (c1 + 1) stop sizes row) then
      sizes.(row) <- float_field line_no "size" text (c1 + 1) stop;
    if not (Float_text.parse_into text (c0 + 1) c1 ests row) then
      ests.(row) <- float_field line_no "estimate" text (c0 + 1) c1;
    (* [Task.make]'s checks, in its order, with its messages. *)
    let est = ests.(row) and size = sizes.(row) in
    if not (est > 0.0) then parse_error line_no "Task.make: estimate must be > 0";
    if est = Float.infinity then parse_error line_no "Task.make: estimate must be finite";
    if size < 0.0 then parse_error line_no "Task.make: negative size";
    if not (Float.is_finite size) then parse_error line_no "Task.make: size must be finite";
    k := row + 1
  end;
  stop

(* The lines from [pos] up to [len], each ending at a '\n' or at [len],
   as rows [!k] on from physical line [!line]: the parser behind both
   readers. *)
let parse_rows text pos len ests sizes k line =
  let pos = ref pos in
  while !pos < len do
    let start = !pos and row = !k in
    let stop = plain_row text start len ests sizes row in
    let stop =
      if stop >= 0 then begin
        k := row + 1;
        stop
      end
      else general_row text start len !line k ests sizes
    in
    pos := stop + 1;
    incr line
  done

let instance ~header ~cap ests sizes k =
  let m, alpha, failure, speed_band, topology = header in
  let trim a = if k = cap then a else Array.sub a 0 k in
  Instance.of_columns ?failure ?speed_band ?topology ~m ~alpha ~ests:(trim ests)
    ~sizes:(trim sizes) ()

let instance_of_string text =
  let header = parse_header (header text) in
  let len = String.length text in
  let cap =
    max_rows ~newlines:(count_newlines text)
      ~unterminated:(len > 0 && text.[len - 1] <> '\n')
  in
  let ests = Array.create_float cap and sizes = Array.create_float cap in
  let k = ref 0 and line = ref 3 in
  parse_rows text (rows_start text) len ests sizes k line;
  instance ~header ~cap ests sizes !k

let save_instance ~path instance =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_instance ~output:(output oc) instance)

(* The first '\n' in [buf] from [from] to [lim], or [-1]. *)
let rec newline_from buf from lim =
  if from >= lim then -1
  else if Bytes.unsafe_get buf from = '\n' then from
  else newline_from buf (from + 1) lim

(* The last '\n' in [buf] from [from] to [lim], or [from - 1]. *)
let rec last_newline buf from lim =
  if lim <= from then from - 1
  else if Bytes.unsafe_get buf (lim - 1) = '\n' then lim - 1
  else last_newline buf from (lim - 1)

(* The file is read twice through one buffer of [buffer] bytes: once to
   count its '\n' bytes, which sizes the columns exactly as
   [instance_of_string] sizes them, and once to parse it. The parse
   hands [parse_rows] every complete line in the buffer at once, viewed
   as a string ([Bytes.unsafe_to_string]: nothing keeps the view past
   the call, and the buffer is written only between calls), then moves
   the partial line at its end to the front and refills the rest. A
   line longer than the buffer doubles it, so the buffer grows only to
   the longest line; at the end of the file the last line needs no
   '\n'. *)
let load_instance_with ~buffer ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = ref (Bytes.create (Stdlib.max 1 buffer)) in
      let newlines = ref 0 and last = ref '\n' in
      let rec count () =
        let r = input ic !buf 0 (Bytes.length !buf) in
        if r > 0 then begin
          newlines := !newlines + count_newlines_in (Bytes.unsafe_to_string !buf) 0 r;
          last := Bytes.get !buf (r - 1);
          count ()
        end
      in
      count ();
      let cap = max_rows ~newlines:!newlines ~unterminated:(!last <> '\n') in
      seek_in ic 0;
      (* The unread bytes are [!pos, !lim). *)
      let pos = ref 0 and lim = ref 0 and eof = ref false in
      let rec fill () =
        if !lim < Bytes.length !buf then begin
          let r = input ic !buf !lim (Bytes.length !buf - !lim) in
          if r = 0 then eof := true
          else begin
            lim := !lim + r;
            fill ()
          end
        end
      in
      let refill () =
        let keep = !lim - !pos in
        if keep = Bytes.length !buf then begin
          let grown = Bytes.create (2 * keep) in
          Bytes.blit !buf !pos grown 0 keep;
          buf := grown
        end
        else if !pos > 0 then Bytes.blit !buf !pos !buf 0 keep;
        pos := 0;
        lim := keep;
        fill ()
      in
      (* The end of the line at [!pos] once it is in the buffer: its
         '\n', or [!lim] when the file ends first. *)
      let rec line_end scanned =
        let e = newline_from !buf (!pos + scanned) !lim in
        if e >= 0 then e
        else if !eof then !lim
        else begin
          let scanned = !lim - !pos in
          refill ();
          line_end scanned
        end
      in
      let e = line_end 0 in
      let header = parse_header (Bytes.sub_string !buf !pos (e - !pos)) in
      pos := Stdlib.min (e + 1) !lim;
      (* The column line. *)
      let e = line_end 0 in
      pos := Stdlib.min (e + 1) !lim;
      let ests = Array.create_float cap and sizes = Array.create_float cap in
      let k = ref 0 and line = ref 3 in
      let rec rows () =
        let stop = if !eof then !lim else last_newline !buf !pos !lim + 1 in
        if stop > !pos then begin
          parse_rows (Bytes.unsafe_to_string !buf) !pos stop ests sizes k line;
          pos := stop
        end;
        if not !eof then begin
          refill ();
          rows ()
        end
      in
      rows ();
      instance ~header ~cap ests sizes !k)

let load_instance ~path = load_instance_with ~buffer:chunk ~path
