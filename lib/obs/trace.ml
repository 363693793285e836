(* The sink streams to a temp file and renames it into place on [close]:
   a killed or crashing run leaves either no trace file or a previous
   complete one, never a torn JSONL.

   Records are appended to one reused buffer, which goes to the channel
   in chunks of about [chunk] bytes at record boundaries. A memory sink
   has no channel and keeps everything in the buffer. *)
type t = {
  buf : Buffer.t;
  oc : out_channel option;
  path : string;
  temp : string;
  mutable closed : bool;
}

let chunk = 65536

let make ~buf ~oc ~path ~temp = { buf; oc; path; temp; closed = false }

let create ~path =
  (match Filename.dirname path with
  | "" | "." -> ()
  | dir -> Fs.mkdir_p dir);
  let temp = Fs.temp_path path in
  let oc = open_out temp in
  make ~buf:(Buffer.create (2 * chunk)) ~oc:(Some oc) ~path ~temp

let memory () = make ~buf:(Buffer.create 4096) ~oc:None ~path:"" ~temp:""

let contents t = Buffer.contents t.buf

let flush t =
  match t.oc with
  | Some oc ->
      Buffer.output_buffer oc t.buf;
      Buffer.clear t.buf
  | None -> ()

let literal t s = Buffer.add_string t.buf s

(* Digits straight into the buffer: [string_of_int] would allocate. *)
let int t i = Usched_report.Float_text.add_int t.buf i
let float t f = Usched_report.Json.add_float t.buf f

let end_record t =
  if t.closed then invalid_arg "Trace: sink is closed";
  Buffer.add_char t.buf '\n';
  if Buffer.length t.buf >= chunk then flush t

let emit t json =
  if t.closed then invalid_arg "Trace.emit: sink is closed";
  Usched_report.Json.add t.buf json;
  end_record t

let append t ~from =
  if t.closed then invalid_arg "Trace.append: sink is closed";
  match t.oc with
  | Some oc ->
      flush t;
      Buffer.output_buffer oc from.buf
  | None -> Buffer.add_buffer t.buf from.buf

let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush t;
    match t.oc with
    | Some oc ->
        close_out oc;
        Sys.rename t.temp t.path
    | None -> ()
  end

let discard t =
  if not t.closed then begin
    t.closed <- true;
    Buffer.reset t.buf;
    match t.oc with
    | Some oc -> (
        close_out_noerr oc;
        try Sys.remove t.temp with Sys_error _ -> ())
    | None -> ()
  end

let use t f =
  match f t with
  | v ->
      close t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      discard t;
      Printexc.raise_with_backtrace e bt

let with_file ~path f = use (create ~path) f
