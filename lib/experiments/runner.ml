module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Workload = Usched_model.Workload
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine
module Bitset = Usched_model.Bitset
module Table = Usched_report.Table
module Core = Usched_core
module Rng = Usched_prng.Rng
module Summary = Usched_stats.Summary
module Pool = Usched_parallel.Pool
module Metrics = Usched_obs.Metrics
module Fs = Usched_obs.Fs
module Json = Usched_report.Json

type config = {
  seed : int;
  reps : int;
  domains : int;
  exact_n : int;
  csv_dir : string option;
  metrics : Metrics.t;
  algo_specs : string list ref;
}

let default_config =
  {
    seed = 42;
    reps = 50;
    domains = Pool.recommended_domains ();
    exact_n = 16;
    csv_dir = None;
    metrics = Metrics.create ();
    algo_specs = ref [];
  }

let fresh_metrics config =
  { config with metrics = Metrics.create (); algo_specs = ref [] }

let record_spec config spec =
  let s = Core.Strategy.to_string spec in
  if not (List.mem s !(config.algo_specs)) then
    config.algo_specs := !(config.algo_specs) @ [ s ]

let strategy config ~m spec =
  record_spec config spec;
  Core.Strategy.build spec ~m

let maybe_csv config ~name ~header rows =
  match config.csv_dir with
  | None -> ()
  | Some dir ->
      Metrics.time (Metrics.timer config.metrics "runner.csv_write") (fun () ->
          Fs.mkdir_p dir;
          let path = Filename.concat dir (name ^ ".csv") in
          (* Atomic: a run killed mid-write must not leave a torn CSV. *)
          Fs.write_atomic ~path (Usched_report.Csv.to_string ~header rows);
          Metrics.incr (Metrics.counter config.metrics "runner.csv_files");
          Printf.printf "[csv] wrote %s\n" path)

let maybe_manifest config ~id ~title ~wall_time_s =
  match config.csv_dir with
  | None -> ()
  | Some dir ->
      Fs.mkdir_p dir;
      let path = Filename.concat dir (id ^ ".manifest.json") in
      let manifest =
        Json.Obj
          [
            ("type", Json.String "run_manifest");
            ("experiment", Json.String id);
            ("title", Json.String title);
            ("seed", Json.Int config.seed);
            ("reps", Json.Int config.reps);
            ("domains", Json.Int config.domains);
            ("exact_n", Json.Int config.exact_n);
            ("wall_time_s", Json.float wall_time_s);
            ("unix_time", Json.float (Metrics.now_s ()));
            ( "algo_specs",
              Json.List
                (List.map (fun s -> Json.String s) !(config.algo_specs)) );
            ("metrics", Metrics.to_json (Metrics.snapshot config.metrics));
          ]
      in
      (* Atomic: readers see the previous manifest or this one, nothing
         in between. *)
      Fs.write_atomic ~path (Json.to_string manifest ^ "\n");
      Printf.printf "[manifest] wrote %s\n" path

let quick config = { config with reps = Stdlib.min config.reps 5 }

let opt_estimate config ~m actuals =
  if Array.length actuals <= config.exact_n then begin
    let result = Core.Opt.solve ~node_limit:2_000_000 ~m actuals in
    if result.Core.Opt.optimal then (result.Core.Opt.value, true)
    else (Core.Lower_bounds.best ~m actuals, false)
  end
  else (Core.Lower_bounds.best ~m actuals, false)

(* One generator per repetition, split in order off a master seeded
   [seed + salt]: repetition [r] sees the same stream whether the
   repetitions run in a loop or fan out over domains. *)
let rep_streams config ~salt ~reps =
  let master = Rng.create ~seed:(config.seed + salt) () in
  Array.init reps (fun _ -> Rng.split master)

let paired_reps config ~salt ~reps f =
  Array.iter f (rep_streams config ~salt ~reps)

let generate ?(spec = Workload.Uniform { lo = 1.0; hi = 10.0 }) ~n ~m ~alpha
    rng =
  let instance =
    Workload.generate spec ~n ~m ~alpha:(Uncertainty.alpha alpha) rng
  in
  (instance, Realization.log_uniform_factor instance rng)

let ring_placement ~m ~n ~k =
  Core.Placement.of_sets ~m
    (Array.init n (fun j ->
         Bitset.of_list m (List.init k (fun i -> (j + i) mod m))))

type sweep_result = {
  summary : Summary.t;
  worst : float;
  exact_opt : bool;
}

let random_sweep config ~algo ~spec ~realize ~n ~m ~alpha =
  (* The timer wraps the whole sweep from the main domain; workers are
     left uninstrumented (metrics registries are single-domain). *)
  Metrics.time (Metrics.timer config.metrics "phase.sweep") @@ fun () ->
  let alpha_v = Uncertainty.alpha alpha in
  (* Derive one independent stream per repetition up front so results do
     not depend on the parallel execution order. *)
  let streams = rep_streams config ~salt:0 ~reps:config.reps in
  let run rep =
    let rng = streams.(rep) in
    let instance = Workload.generate spec ~n ~m ~alpha:alpha_v rng in
    let realization = realize instance rng in
    let makespan = Core.Two_phase.makespan algo instance realization in
    let opt, exact =
      opt_estimate config ~m (Realization.actuals realization)
    in
    (makespan /. opt, exact)
  in
  let results = Pool.parallel_init ~domains:config.domains config.reps run in
  let summary = Summary.create () in
  Array.iter (fun (r, _) -> Summary.add summary r) results;
  {
    summary;
    worst = Summary.max summary;
    exact_opt = Array.for_all snd results;
  }

let adversarial_ratio config algo instance =
  Metrics.time (Metrics.timer config.metrics "phase.adversary") @@ fun () ->
  let placement = algo.Core.Two_phase.phase1 instance in
  let run realization =
    algo.Core.Two_phase.phase2 instance placement realization
  in
  let opt actuals = fst (opt_estimate config ~m:(Instance.m instance) actuals) in
  let candidates =
    ref
      [
        Core.Adversary.theorem1 instance placement;
        Core.Adversary.greedy_flip ~run ~opt instance;
      ]
  in
  for machine = 0 to Stdlib.min 7 (Instance.m instance - 1) do
    candidates := Core.Adversary.inflate_machine machine instance placement :: !candidates
  done;
  let best =
    List.fold_left
      (fun acc realization ->
        Float.max acc (Core.Adversary.ratio ~run ~opt realization))
      neg_infinity !candidates
  in
  if Instance.n instance <= 12 then begin
    let _, exhaustive_ratio = Core.Adversary.exhaustive ~run ~opt instance in
    Float.max best exhaustive_ratio
  end
  else best

type 'r column = {
  title : string;
  align : Table.align;
  cell : 'r -> string;
  fields : (string * ('r -> string)) list;
}

let column ?(align = Table.Right) ?(csv = []) title cell =
  { title; align; cell; fields = csv }

let csv_float = Printf.sprintf "%.6f"

let text ?(align = Table.Left) ?csv title f =
  column ~align ?csv:(Option.map (fun name -> [ (name, f) ]) csv) title f

(* The CSV field [name] of a float column, when the column has one. *)
let float_field csv f =
  Option.map (fun name -> [ (name, fun r -> csv_float (f r)) ]) csv

let float ?csv title f =
  column ?csv:(float_field csv f) title (fun r -> Table.cell_float (f r))

let percent ?csv title f =
  column ?csv:(float_field csv f) title (fun r ->
      Printf.sprintf "%.1f%%" (100.0 *. f r))

let mean_or_dash ?(stat = Summary.mean) ?csv title f =
  let or_empty empty format r =
    let s = f r in
    if Summary.count s = 0 then empty else format (stat s)
  in
  column
    ?csv:
      (Option.map (fun name -> [ (name, or_empty "nan" csv_float) ]) csv)
    title
    (or_empty "-" (fun x -> Table.cell_float x))

let report config ?csv columns rows =
  let table =
    Table.create ~columns:(List.map (fun c -> (c.title, c.align)) columns)
  in
  List.iter
    (fun r -> Table.add_row table (List.map (fun c -> c.cell r) columns))
    rows;
  print_string (Table.render table);
  match csv with
  | None -> ()
  | Some name ->
      let fields = List.concat_map (fun c -> c.fields) columns in
      maybe_csv config ~name ~header:(List.map fst fields)
        (List.map (fun r -> List.map (fun (_, f) -> f r) fields) rows)

type fault_cell = {
  mutable runs : int;
  mutable full_runs : int;
  completion : Summary.t;
  degradation : Summary.t;
  wasted : Summary.t;
}

let fault_cell () =
  {
    runs = 0;
    full_runs = 0;
    completion = Summary.create ();
    degradation = Summary.create ();
    wasted = Summary.create ();
  }

let record_fault cell ~healthy ~total_work (outcome : Engine.outcome) =
  cell.runs <- cell.runs + 1;
  Summary.add cell.completion
    (float_of_int outcome.Engine.completed
    /. float_of_int (Array.length outcome.Engine.fates));
  Summary.add cell.wasted (outcome.Engine.wasted /. total_work);
  if outcome.Engine.stranded = [] then begin
    cell.full_runs <- cell.full_runs + 1;
    Summary.add cell.degradation (outcome.Engine.makespan /. healthy)
  end

let runs_column title ~csv count cell =
  column
    ~csv:
      [
        (csv, fun r -> string_of_int (count (cell r)));
        ("runs", fun r -> string_of_int (cell r).runs);
      ]
    title
    (fun r -> Printf.sprintf "%d/%d" (count (cell r)) (cell r).runs)

let full_runs cell =
  runs_column "full runs" ~csv:"full_runs" (fun c -> c.full_runs) cell

let stranded_runs cell =
  runs_column "stranded runs" ~csv:"stranded_runs"
    (fun c -> c.runs - c.full_runs)
    cell

let tasks_done cell =
  percent ~csv:"task_completion" "tasks done" (fun r ->
      Summary.mean (cell r).completion)

let mean_degr cell =
  mean_or_dash ~csv:"mean_degradation" "mean degr" (fun r ->
      (cell r).degradation)

let wasted cell =
  percent ~csv:"wasted_fraction" "wasted" (fun r ->
      Summary.mean (cell r).wasted)

let print_section title =
  let rule = String.make 72 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" rule title rule
