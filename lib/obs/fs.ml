let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
        (* Someone (possibly a racing process) beat us to it; only object
           when the existing entry is not a directory at all. *)
        if not (try Sys.is_directory dir with Sys_error _ -> false) then
          failwith (Printf.sprintf "mkdir_p: %s exists and is not a directory" dir)
  end

(* The temp file must live in the target's directory: [rename] is only
   atomic within a filesystem. The pid keeps concurrent writers (e.g.
   parallel experiment runners) off each other's temp files. *)
let temp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let with_atomic_oc ~path f =
  (match Filename.dirname path with
  | "" | "." -> ()
  | dir -> mkdir_p dir);
  let temp = temp_path path in
  let oc = open_out temp in
  match
    let v = f oc in
    close_out oc;
    Sys.rename temp path;
    v
  with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove temp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let write_atomic ~path content =
  with_atomic_oc ~path (fun oc -> output_string oc content)
