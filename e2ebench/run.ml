(* End-to-end benchmark of the usched gen -> solve pipeline.

   Each run of a workload sets up its inputs with [usched gen] (several
   instances, each set-up timed), then runs one [usched] process at a
   time until --seconds have passed, cycling through the instances with
   a fresh solve seed per op; every op's output is checked. All inputs
   derive from --seed. The last line of stdout is the run's JSON result.
   With --trace 1 each op is followed by the in-process copy of the same
   op (traced.ml), which records one span per library call; the per-layer
   metrics are medians over those traced ops. See README.md. *)

module Json = Usched_report.Json
module Quantile = Usched_stats.Quantile
module Registry = Usched_experiments.Registry

(* ---------------- BENCHMARK.json: metric names, units, bounds ---------- *)

type metric_spec = { name : string; unit : string; bound : float option }

type bench = { run_seconds : int; end_to_end : metric_spec list; per_layer : metric_spec list }

let load_bench path =
  let json = Json.of_string_exn (In_channel.with_open_bin path In_channel.input_all) in
  let field k j =
    match Json.member k j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing field %S" path k)
  in
  let str = function Json.String s -> s | _ -> failwith (path ^ ": expected a string") in
  let num = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> failwith (path ^ ": expected a number")
  in
  let metrics k =
    match field k json with
    | Json.List l ->
        List.map
          (fun m ->
            {
              name = str (field "name" m);
              unit = str (field "unit" m);
              bound = Option.map num (Json.member "bound" m);
            })
          l
    | _ -> failwith (Printf.sprintf "%s: %S is not a list" path k)
  in
  {
    run_seconds = int_of_float (num (field "run_seconds" json));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* ---------------- runs ---------------- *)

type ctx = { usched : string; dir : string; seconds : float; smoke : bool }

(* One metric of a run or an op: name, unit, value. *)
type metric = string * string * float

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : metric list;
  setup_metrics : metric list;
      (** Traced mode: the in-process [usched gen], once per run. *)
}

let median l = Quantile.median (Array.of_list l)
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let usched ctx w args =
  Proc.run ~prog:ctx.usched ~dir:ctx.dir ~timeout_s:(Workload.timeout_s w) args

let require_exit0 what (o : Proc.outcome) =
  if o.status <> Proc.Exited 0 then
    failwith (Printf.sprintf "%s: %s\n%s" what (Proc.describe o.status) o.stderr)

(* Set-up: the instances an op cycles through, and each set-up's wall
   time. The artifacts workload has no instance; its set-up asks usched
   for its experiment list. *)
type setup = { instances : (string * int) array; setup_s : float list }

let setup ctx (w : Workload.t) st =
  let count = w.instances in
  match w.op with
  | Workload.Solve { gen; _ } ->
      let made =
        List.init count (fun i ->
            let path = Filename.concat ctx.dir (Printf.sprintf "instance%d.usched" i) in
            let seed = Random.State.bits st in
            let o = usched ctx w (Workload.gen_args gen ~seed ~out:path) in
            require_exit0 "usched gen" o;
            ((path, seed), o.wall_s))
      in
      { instances = Array.of_list (List.map fst made); setup_s = List.map snd made }
  | Workload.Artifacts _ ->
      let times =
        List.init count (fun _ ->
            let o = usched ctx w [ "list" ] in
            require_exit0 "usched list" o;
            let ids = List.filter (( <> ) "") (String.split_on_char '\n' o.stdout) in
            if List.length ids <> List.length Registry.all then
              failwith "usched list disagrees with the experiment registry";
            o.wall_s)
      in
      { instances = [||]; setup_s = times }

let expected_manifests = function [] -> List.length Registry.all | ids -> List.length ids

(* One CLI op with its checked facts (or why it failed). *)
let cli_op ctx (w : Workload.t) setup ~k ~seed =
  let checked (o : Proc.outcome) check =
    match o.status with
    | Proc.Exited 0 -> ( try Ok (check o.stdout) with Check.Bad msg -> Error msg)
    | st -> Error (Proc.describe st)
  in
  match w.op with
  | Workload.Solve { gen; solve } ->
      let file, _ = setup.instances.(k mod Array.length setup.instances) in
      let trace =
        if solve.trace then Some (Filename.concat ctx.dir "trace.jsonl") else None
      in
      let o = usched ctx w (Workload.solve_args solve ~seed ~file ~trace) in
      (o, checked o (Check.solve gen solve ~trace))
  | Workload.Artifacts { ids } ->
      let csv = Filename.concat ctx.dir "csv" in
      remove_tree csv;
      let o = usched ctx w (Workload.artifacts_args ids ~seed ~csv) in
      (o, checked o (fun _ -> Check.artifacts ~expected:(expected_manifests ids) ~csv))

(* Runs [op k seed] until the run's seconds are spent (once in smoke
   mode), drawing each op's seed from [st]. *)
let repeat ctx st op =
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k > 0 && (ctx.smoke || Unix.gettimeofday () -. t0 >= ctx.seconds) then List.rev acc
    else go (k + 1) (op ~k ~seed:(Random.State.bits st) :: acc)
  in
  go 0 []

let report_op ~k (o : Proc.outcome) = function
  | Ok _ -> log "  op %d: %.4f s" k o.wall_s
  | Error msg -> log "  op %d: %.4f s FAILED: %s" k o.wall_s msg

let run_e2e ctx (w : Workload.t) ~seed =
  let st = Random.State.make [| seed |] in
  let setup = setup ctx w st in
  let ops =
    repeat ctx st (fun ~k ~seed ->
        let o, facts = cli_op ctx w setup ~k ~seed in
        report_op ~k o facts;
        (o, facts))
  in
  let ok = List.filter (fun (_, f) -> Result.is_ok f) ops in
  (* Timings of failed ops say nothing unless every op failed. *)
  let timed = if ok = [] then ops else ok in
  let heaps = List.filter_map (fun ((o : Proc.outcome), _) -> Proc.peak_heap_mb o) timed in
  let ratios =
    List.filter_map
      (fun (_, f) ->
        match f with
        | Ok facts -> Option.map float_of_string (List.assoc_opt "ratio" facts)
        | Error _ -> None)
      ok
  in
  let metrics =
    [
      ("wall_s", "s", median (List.map (fun ((o : Proc.outcome), _) -> o.wall_s) timed));
      ("setup_s", "s", median setup.setup_s);
    ]
    @ (if heaps = [] then [] else [ ("peak_heap_mb", "MB", median heaps) ])
    @ if ratios = [] then [] else [ ("cmax_ratio", "ratio", median ratios) ]
  in
  {
    workload = w.name;
    seed;
    attempted = List.length ops;
    failed = List.length ops - List.length ok;
    metrics;
    setup_metrics = [];
  }

(* ---------------- traced mode ---------------- *)

(* Self time and minor words per span name, and the counters, of one
   traced op. *)
let layer_metrics sp ~op : metric list =
  let layers, counters = Span.layers sp ~op in
  List.concat_map
    (fun (l : Span.layer) ->
      [ (l.name ^ "_s", "s", l.self_s); (l.name ^ ".minor_words", "words", l.self_words) ])
    layers
  @ List.map (fun (c : Span.counter) -> (c.key, c.unit, c.value)) counters

let sum ms pred = List.fold_left (fun acc (n, _, v) -> if pred n then acc +. v else acc) 0.0 ms
let get ms name = sum ms (( = ) name)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* [layer_metrics] of a traced solve op plus the metrics derived from
   them: the op's wall time, all engine self time, the engine's event
   rate over the calls that count events, the share of started copies
   that produced a result, the parse rate, and what the event log costs
   the faulty replay ([probe_s]: the same replay untraced). *)
let solve_metrics sp ~op ~file_bytes ~probe_s : metric list =
  let ms = layer_metrics sp ~op in
  let engine_s n =
    String.starts_with ~prefix:"desim.engine." n && String.ends_with ~suffix:"_s" n
  in
  ms
  @ [
      ("op_s", "s", Span.duration (Span.root sp ~op));
      ("desim.engine.total_s", "s", sum ms engine_s);
      ( "desim.engine.events_per_s",
        "1/s",
        ratio (get ms "desim.engine.events")
          (sum ms (fun n ->
               List.mem n
                 [
                   "desim.engine.run_faulty_s";
                   "desim.engine.run_stream_s";
                   "desim.engine.run_traced_s";
                 ])) );
      ( "desim.engine.dispatch_yield",
        "ratio",
        ratio (get ms "desim.engine.completed") (get ms "desim.engine.dispatches") );
      ( "model.io.load_mb_per_s",
        "MB/s",
        ratio (float_of_int file_bytes /. 1048576.0) (get ms "model.io.load_instance_s") );
    ]
  @
  match probe_s with
  | Some untraced ->
      [ ("desim.engine.traced_extra_s", "s", get ms "desim.engine.run_faulty_s" -. untraced) ]
  | None -> []

(* Medians over ops, metric by metric, in first-seen order. *)
let median_metrics (per_op : metric list list) : metric list =
  let names =
    List.fold_left
      (fun acc (n, u, _) -> if List.mem_assoc n acc then acc else acc @ [ (n, u) ])
      [] (List.concat per_op)
  in
  let value_in op n = List.find_map (fun (n', _, v) -> if n' = n then Some v else None) op in
  List.map (fun (n, u) -> (n, u, median (List.filter_map (fun op -> value_in op n) per_op))) names

let run_traced ctx (w : Workload.t) ~seed ~spans_path =
  let sp = Span.create () in
  let st = Random.State.make [| seed |] in
  let setup = setup ctx w st in
  let failures = ref 0 in
  let attempt what f =
    match f () with
    | v -> Some v
    | exception (Check.Bad msg | Failure msg | Invalid_argument msg) ->
        log "  %s FAILED: %s" what msg;
        incr failures;
        None
  in
  (* The in-process copy of [usched gen] must write the same file. *)
  let gen_metrics =
    match w.op with
    | Workload.Artifacts _ -> []
    | Workload.Solve { gen; _ } ->
        let path, gen_seed = setup.instances.(0) in
        let out = Filename.concat ctx.dir "traced.usched" in
        Option.value ~default:[]
          (attempt "traced gen" (fun () ->
               let op, facts = Span.op sp "gen" (fun () -> Traced.gen sp gen ~seed:gen_seed ~out) in
               Check.same_facts ~cli:[ ("instance", Traced.digest path) ] ~traced:facts;
               List.filter
                 (fun (n, _, _) -> not (String.starts_with ~prefix:"gen" n))
                 (layer_metrics sp ~op)))
  in
  let pairs =
    repeat ctx st (fun ~k ~seed ->
        let o, cli = cli_op ctx w setup ~k ~seed in
        report_op ~k o cli;
        let traced =
          match cli with
          | Error _ -> None
          | Ok cli ->
              attempt (Printf.sprintf "traced op %d" k) (fun () ->
                  match w.op with
                  | Workload.Solve { solve; _ } ->
                      let file, _ = setup.instances.(k mod Array.length setup.instances) in
                      let trace_path =
                        if solve.trace then Some (Filename.concat ctx.dir "traced.jsonl") else None
                      in
                      let op, r =
                        Span.op sp "solve" (fun () -> Traced.solve sp solve ~file ~seed ~trace_path)
                      in
                      Check.same_facts ~cli ~traced:r.facts;
                      let probe_s = Option.map (fun p -> p ()) r.probe in
                      solve_metrics sp ~op ~file_bytes:(Unix.stat file).Unix.st_size ~probe_s
                  | Workload.Artifacts { ids } ->
                      let csv = Filename.concat ctx.dir "traced-csv" in
                      remove_tree csv;
                      let stdout_path = Filename.concat ctx.dir "traced.stdout" in
                      let op, () =
                        Span.op sp "artifacts" (fun () ->
                            Traced.artifacts sp ids ~seed ~csv ~stdout_path)
                      in
                      Check.same_facts ~cli
                        ~traced:(Check.artifacts ~expected:(expected_manifests ids) ~csv);
                      ("op_s", "s", Span.duration (Span.root sp ~op)) :: layer_metrics sp ~op)
        in
        (o, cli, traced))
  in
  Span.write sp ~path:spans_path;
  (* What the CLI spends outside the copied calls — process start,
     argument parsing, printing — per pair of ops on the same input. *)
  let traced =
    List.filter_map
      (fun ((o : Proc.outcome), _, t) ->
        Option.map (fun ms -> ("unattributed_s", "s", o.wall_s -. get ms "op_s") :: ms) t)
      pairs
  in
  let cli_failed = List.length (List.filter (fun (_, cli, _) -> Result.is_error cli) pairs) in
  {
    workload = w.name;
    seed;
    attempted = List.length pairs;
    failed = cli_failed + !failures;
    metrics = median_metrics traced;
    setup_metrics = gen_metrics;
  }

(* ---------------- output ---------------- *)

(* Times first, largest first, with their share of the traced op;
   then everything else by name. *)
let print_table ~op_s metrics =
  let times, rest = List.partition (fun (_, u, _) -> u = "s") metrics in
  List.iter
    (fun (n, u, v) ->
      match op_s with
      | Some total when total > 0.0 ->
          Printf.printf "  %-44s %14.6g %-6s %6.1f%%\n" n v u (100.0 *. v /. total)
      | _ -> Printf.printf "  %-44s %14.6g %s\n" n v u)
    (List.sort (fun (_, _, a) (_, _, b) -> compare b a) times);
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-44s %14.6g %s\n" n v u)
    (List.sort compare rest)

let print_run r =
  Printf.printf "%s seed %d: %d op(s), %d failed\n" r.workload r.seed r.attempted r.failed;
  print_table ~op_s:(List.find_map (fun (n, _, v) -> if n = "op_s" then Some v else None) r.metrics)
    r.metrics;
  if r.setup_metrics <> [] then begin
    Printf.printf "  set-up, in-process usched gen of the first instance:\n";
    print_table ~op_s:None r.setup_metrics
  end

let value r (spec : metric_spec) =
  match List.find_opt (fun (n, _, _) -> n = spec.name) (r.metrics @ r.setup_metrics) with
  | Some (_, u, v) ->
      if u <> spec.unit then
        failwith
          (Printf.sprintf "%s is measured in %s, BENCHMARK.json says %s" spec.name u
             spec.unit);
      v
  | None -> 0.0 (* a layer the workload never calls *)

let result_json r specs =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun spec ->
               ( spec.name,
                 Json.Obj
                   [ ("value", Json.Float (value r spec)); ("unit", Json.String spec.unit) ] ))
             specs) );
    ]

(* --runs: each metric's median and quartiles over the runs of a
   workload, flagging an end-to-end spread wider than its bound
   (set-up time is exempt: its bound applies to the median only). *)
let print_summary (runs : run list) specs =
  Printf.printf "\n%-18s %-30s %12s %12s %12s %8s\n" "workload" "metric" "median" "q1" "q3"
    "spread";
  let names = List.sort_uniq compare (List.map (fun r -> r.workload) runs) in
  List.iter
    (fun w ->
      let rs = List.filter (fun r -> r.workload = w) runs in
      List.iter
        (fun spec ->
          let values = Array.of_list (List.map (fun r -> value r spec) rs) in
          let q1, med, q3 = Quantile.quartiles values in
          let spread = if med <> 0.0 then (q3 -. q1) /. Float.abs med else 0.0 in
          let flag =
            match spec.bound with
            | Some b when spread > b && spec.name <> "setup_s" -> "  SPREAD > BOUND"
            | _ -> ""
          in
          Printf.printf "%-18s %-30s %12.6g %12.6g %12.6g %7.2f%%%s\n" w spec.name med q1 q3
            (100.0 *. spread) flag)
        specs)
    names

(* ---------------- main ---------------- *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let runs = ref 1 and smoke = ref false and usched = ref "" in
  let names = String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all) in
  let usage = "run.exe --usched PATH [options]  (normally through e2ebench/run.sh)" in
  Arg.parse
    [
      ("--usched", Arg.Set_string usched, "PATH  the usched binary to measure");
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ names ^ ", or all (default)");
      ("--seed", Arg.Set_int seed, "N  seed every input derives from (default 1)");
      ( "--seconds",
        Arg.Set_int seconds,
        "S  measure each run for S seconds (default: run_seconds)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1  1: per-layer metrics from traced in-process ops; spans go to \
         .e2ebench/spans-WORKLOAD-SEED.jsonl" );
      ("--runs", Arg.Set_int runs, "K  run each workload K times (seeds N..N+K-1) and summarize");
      ("--smoke", Arg.Set smoke, " at most 2000 tasks, one op per run, two quick artifacts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !usched = "" || not (Sys.file_exists !usched) then begin
    prerr_endline "run.exe: --usched PATH to a built usched binary is required";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "run.exe: --trace takes 0 or 1"; exit 2);
  let bench = load_bench "BENCHMARK.json" in
  let workloads =
    if !workload = "all" then Workload.all
    else
      match Workload.find !workload with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "run.exe: unknown workload %S (known: %s)\n" !workload names;
          exit 2
  in
  let workloads = if !smoke then List.map Workload.smoke workloads else workloads in
  let ctx =
    {
      usched = !usched;
      dir = Filename.concat ".e2ebench" (Printf.sprintf "tmp-%d" (Unix.getpid ()));
      seconds = float_of_int (if !seconds > 0 then !seconds else bench.run_seconds);
      smoke = !smoke;
    }
  in
  (* One domain per op, for the CLI and for the traced copy's
     [Pool.recommended_domains] alike. On a 2-core machine two domains
     compete with everything else on the host: over the same inputs, the
     robust-speed op time varied 26% (sd/mean) on two domains and 5% on
     one. *)
  Unix.putenv "USCHED_DOMAINS" "1";
  Usched_obs.Fs.mkdir_p ctx.dir;
  at_exit (fun () ->
      Proc.kill_current ();
      remove_tree ctx.dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let specs = if !trace = 1 then bench.per_layer else bench.end_to_end in
  let run_one (w : Workload.t) ~seed =
    log "%s seed %d%s" w.name seed (if !trace = 1 then " (traced)" else "");
    let r =
      if !trace = 1 then
        run_traced ctx w ~seed
          ~spans_path:(Filename.concat ".e2ebench" (Printf.sprintf "spans-%s-%d.jsonl" w.name seed))
      else run_e2e ctx w ~seed
    in
    print_run r;
    r
  in
  match (workloads, !runs) with
  | [ w ], 1 ->
      let r = run_one w ~seed:!seed in
      print_endline (Json.to_string (result_json r specs))
  | _ ->
      let all =
        List.concat
          (List.init (max 1 !runs) (fun i ->
               let order = if i mod 2 = 0 then workloads else List.rev workloads in
               List.map (fun w -> run_one w ~seed:(!seed + i)) order))
      in
      print_summary all specs;
      if List.exists (fun r -> r.failed > 0) all then exit 1
