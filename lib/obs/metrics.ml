module Json = Usched_report.Json

type counter = { mutable count : int; c_live : bool }
type gauge = { mutable level : float; mutable g_set : bool; g_live : bool }
type timer = { mutable total_s : float; mutable spans : int; t_live : bool }

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_live : bool;
}

type item =
  | I_counter of counter
  | I_gauge of gauge
  | I_timer of timer
  | I_histogram of histogram

type t = { live : bool; items : (string, item) Hashtbl.t }

let create () = { live = true; items = Hashtbl.create 16 }
let disabled = { live = false; items = Hashtbl.create 1 }
let is_enabled t = t.live

(* Shared sinks for disabled registries: their [*_live] flag is false, so
   no update ever mutates them. *)
let dummy_counter = { count = 0; c_live = false }
let dummy_gauge = { level = 0.0; g_set = false; g_live = false }
let dummy_timer = { total_s = 0.0; spans = 0; t_live = false }

let dummy_histogram =
  { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity; h_live = false }

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered with a different kind" name)

let counter t name =
  if not t.live then dummy_counter
  else
    match Hashtbl.find_opt t.items name with
    | Some (I_counter c) -> c
    | Some _ -> kind_error name
    | None ->
        let c = { count = 0; c_live = true } in
        Hashtbl.add t.items name (I_counter c);
        c

let incr c = if c.c_live then c.count <- c.count + 1
let add c n = if c.c_live then c.count <- c.count + n

let gauge t name =
  if not t.live then dummy_gauge
  else
    match Hashtbl.find_opt t.items name with
    | Some (I_gauge g) -> g
    | Some _ -> kind_error name
    | None ->
        let g = { level = 0.0; g_set = false; g_live = true } in
        Hashtbl.add t.items name (I_gauge g);
        g

let set g v =
  if g.g_live then begin
    g.level <- v;
    g.g_set <- true
  end

let record_max g v =
  if g.g_live && ((not g.g_set) || v > g.level) then begin
    g.level <- v;
    g.g_set <- true
  end

let now_s = Unix.gettimeofday

let timer t name =
  if not t.live then dummy_timer
  else
    match Hashtbl.find_opt t.items name with
    | Some (I_timer tm) -> tm
    | Some _ -> kind_error name
    | None ->
        let tm = { total_s = 0.0; spans = 0; t_live = true } in
        Hashtbl.add t.items name (I_timer tm);
        tm

let add_span tm d =
  if tm.t_live then begin
    tm.total_s <- tm.total_s +. d;
    tm.spans <- tm.spans + 1
  end

let time tm f =
  if not tm.t_live then f ()
  else begin
    let t0 = now_s () in
    Fun.protect ~finally:(fun () -> add_span tm (now_s () -. t0)) f
  end

let histogram t name =
  if not t.live then dummy_histogram
  else
    match Hashtbl.find_opt t.items name with
    | Some (I_histogram h) -> h
    | Some _ -> kind_error name
    | None ->
        let h =
          {
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
            h_live = true;
          }
        in
        Hashtbl.add t.items name (I_histogram h);
        h

let observe h v =
  if h.h_live then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

type value =
  | Counter of int
  | Gauge of float
  | Timer of { total_s : float; spans : int }
  | Histogram of { count : int; sum : float; min : float; max : float }

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name item acc ->
      let v =
        match item with
        | I_counter c -> Counter c.count
        | I_gauge g -> Gauge g.level
        | I_timer tm -> Timer { total_s = tm.total_s; spans = tm.spans }
        | I_histogram h ->
            Histogram
              { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max }
      in
      (name, v) :: acc)
    t.items []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snapshot name = List.assoc_opt name snapshot

let to_json snapshot =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let j =
           match v with
           | Counter n -> Json.Int n
           | Gauge g -> Json.float g
           | Timer { total_s; spans } ->
               Json.Obj
                 [ ("total_s", Json.float total_s); ("spans", Json.Int spans) ]
           | Histogram { count; sum; min; max } ->
               let mean = if count = 0 then Json.Null else Json.float (sum /. float_of_int count) in
               Json.Obj
                 [
                   ("count", Json.Int count);
                   ("sum", Json.float sum);
                   ("min", Json.float min);
                   ("max", Json.float max);
                   ("mean", mean);
                 ]
         in
         (name, j))
       snapshot)
