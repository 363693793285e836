(* In-memory span recorder for the traced mode.

   One span per call into a library layer: the traced operation it
   belongs to, its name, the span that was open when it started, start
   and end, the minor words the calling domain allocated meanwhile, and
   counters attached when the call returns. Spans stay in memory and are
   written as JSONL once the run ends, so recording costs two clock reads
   and one allocation per call. Single-domain: never record from inside
   work that [Usched_parallel.Pool] fans out. *)

type counter = { key : string; unit : string; value : float }

type span = {
  op : int;
  id : int;
  name : string;
  parent : int;  (** -1 for an operation's root span. *)
  start : float;  (** Seconds since {!create}. *)
  stop : float;
  minor_words : float;
  counters : counter list;
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable op : int;
  mutable stack : int list;
  mutable spans : span list;  (** Newest first. *)
}

let create () =
  { origin = Unix.gettimeofday (); next_id = 0; op = 0; stack = []; spans = [] }

let record ?(counters = fun _ -> []) t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let result = Fun.protect ~finally:(fun () -> t.stack <- List.tl t.stack) f in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  t.spans <-
    {
      op = t.op;
      id;
      name;
      parent;
      start = t0 -. t.origin;
      stop = t1 -. t.origin;
      minor_words = w1 -. w0;
      counters = counters result;
    }
    :: t.spans;
  result

(* A new traced operation: its root span and every span opened under it
   share a fresh op id. Returns the op id with the result. *)
let op t name f =
  t.op <- t.op + 1;
  let op = t.op in
  (op, record t name f)

let duration (s : span) = s.stop -. s.start

let root t ~op =
  List.find (fun (s : span) -> s.op = op && s.parent < 0) t.spans

(* Per span name within one op: self time (duration minus the time its
   child spans cover; children of one parent never overlap, because a
   span is only recorded on the domain that opened its parent), self
   minor words and call count, plus every counter summed by key. *)
type layer = { name : string; self_s : float; self_words : float; calls : int }

let layers t ~op =
  let spans = List.filter (fun (s : span) -> s.op = op) t.spans in
  let child_s = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent) in
        Hashtbl.replace child_s s.parent (get child_s +. duration s);
        Hashtbl.replace child_w s.parent (get child_w +. s.minor_words)
      end)
    spans;
  let by_name = Hashtbl.create 64 and counters = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      let self_s = duration s -. get child_s
      and self_words = s.minor_words -. get child_w in
      let l =
        match Hashtbl.find_opt by_name s.name with
        | Some l ->
            {
              l with
              self_s = l.self_s +. self_s;
              self_words = l.self_words +. self_words;
              calls = l.calls + 1;
            }
        | None -> { name = s.name; self_s; self_words; calls = 1 }
      in
      Hashtbl.replace by_name s.name l;
      List.iter
        (fun c ->
          let prev =
            match Hashtbl.find_opt counters c.key with
            | Some p -> p.value
            | None -> 0.0
          in
          Hashtbl.replace counters c.key { c with value = prev +. c.value })
        s.counters)
    spans;
  let sorted tbl = List.of_seq (Hashtbl.to_seq_values tbl) in
  ( List.sort (fun a b -> compare a.name b.name) (sorted by_name),
    List.sort (fun a b -> compare a.key b.key) (sorted counters) )

let to_json (s : span) =
  let module Json = Usched_report.Json in
  Json.Obj
    [
      ("op", Json.Int s.op);
      ("id", Json.Int s.id);
      ("name", Json.String s.name);
      ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
      ("start", Json.float s.start);
      ("end", Json.float s.stop);
      ("minor_words", Json.float s.minor_words);
      ( "counters",
        Json.Obj (List.map (fun c -> (c.key, Json.float c.value)) s.counters) );
    ]

let write t ~path =
  Usched_obs.Trace.with_file ~path (fun sink ->
      List.iter
        (fun s -> Usched_obs.Trace.emit sink (to_json s))
        (List.rev t.spans))
