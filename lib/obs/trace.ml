(* The sink streams to a temp file and renames it into place on [close]:
   a killed or crashing run leaves either no trace file or a previous
   complete one, never a torn JSONL.

   Records are written into one fixed chunk of bytes, which goes to the
   channel whenever a record ends at [chunk] bytes or more; numbers go
   in through [Float_text]'s byte writers, so a record allocates
   nothing. Each writer first makes room for what it writes: a file
   sink flushes (mid-record, when a record outgrows the slack), a
   memory sink, which has no channel and keeps everything, doubles its
   bytes. [emit] renders its tree into [tree] and copies it over. *)
module Float_text = Usched_report.Float_text

type t = {
  mutable bytes : Bytes.t;
  mutable pos : int;
  tree : Buffer.t;
  oc : out_channel option;
  path : string;
  temp : string;
  mutable closed : bool;
}

let chunk = 65536

let make ~size ~oc ~path ~temp =
  {
    bytes = Bytes.create size;
    pos = 0;
    tree = Buffer.create 16;
    oc;
    path;
    temp;
    closed = false;
  }

let create ~path =
  (match Filename.dirname path with
  | "" | "." -> ()
  | dir -> Fs.mkdir_p dir);
  let temp = Fs.temp_path path in
  let oc = open_out temp in
  make ~size:(chunk + 1024) ~oc:(Some oc) ~path ~temp

let memory () = make ~size:4096 ~oc:None ~path:"" ~temp:""

let contents t = Bytes.sub_string t.bytes 0 t.pos

let flush t =
  match t.oc with
  | Some oc ->
      output oc t.bytes 0 t.pos;
      t.pos <- 0
  | None -> ()

let make_room t need =
  flush t;
  if t.pos + need > Bytes.length t.bytes then begin
    let grown = Bytes.create (Stdlib.max (2 * Bytes.length t.bytes) (t.pos + need)) in
    Bytes.blit t.bytes 0 grown 0 t.pos;
    t.bytes <- grown
  end

let[@inline] reserve t need = if t.pos + need > Bytes.length t.bytes then make_room t need

let literal t s =
  reserve t (String.length s);
  Bytes.blit_string s 0 t.bytes t.pos (String.length s);
  t.pos <- t.pos + String.length s

let int t i =
  reserve t Float_text.room;
  t.pos <- Float_text.write_int t.bytes t.pos i

let float t column j =
  reserve t Float_text.room;
  t.pos <- Float_text.write_json_float t.bytes t.pos column j

let end_record t =
  if t.closed then invalid_arg "Trace: sink is closed";
  reserve t 1;
  Bytes.unsafe_set t.bytes t.pos '\n';
  t.pos <- t.pos + 1;
  if t.pos >= chunk then flush t

let emit t json =
  if t.closed then invalid_arg "Trace.emit: sink is closed";
  Usched_report.Json.add t.tree json;
  let len = Buffer.length t.tree in
  reserve t len;
  Buffer.blit t.tree 0 t.bytes t.pos len;
  t.pos <- t.pos + len;
  Buffer.clear t.tree;
  end_record t

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
    t.pos <- 0;
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
