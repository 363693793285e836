(* The benchmark's workloads: what each one generates in set-up and what
   one operation runs. Parameters are structured, not strings, so the
   end-to-end mode (CLI arguments) and the traced mode (in-process
   library calls, see traced.ml) are built from the same values. *)

module Workload = Usched_model.Workload

type gen = {
  tasks : int;
  machines : int;
  spec : Workload.spec;
  alpha : float;
  failp : float option;  (** [--failp uniform:P] *)
  speed_band : string option;
  topology : string option;
}

(* The [usched solve] flags the workloads use; everything else stays at
   the CLI's default. *)
type solve = {
  algo : string;
  fail_rate : float;
  recover : int;  (** 0: no re-replication target. *)
  bandwidth : float;  (** [infinity]: the CLI default. *)
  detect_latency : float;
  speculate : float option;
  arrival : string option;  (** [Some spec]: [--stream --arrival spec]. *)
  target_reliability : float option;
  trace : bool;  (** Write the JSONL run trace ([--trace FILE]). *)
}

type op =
  | Solve of { gen : gen; solve : solve }
  | Artifacts of { ids : string list }
      (** [usched all] when empty, else [usched run IDS]; both with
          [--quick --domains 2 --csv DIR]. *)

type t = {
  name : string;
  op : op;
  instances : int;
      (** Instances generated per run; ops cycle through them, so a run
          averages over inputs as well as over solve seeds. *)
  s_per_op : float;
      (** Seconds one op took when the workload was sized (2-core
          x86-64 VM); an op is killed after [max 60 (10 * s_per_op)]. *)
}

let plain_gen =
  {
    tasks = 0;
    machines = 0;
    spec = Workload.Uniform { lo = 1.0; hi = 10.0 };
    alpha = 2.0;
    failp = None;
    speed_band = None;
    topology = None;
  }

let plain_solve =
  {
    algo = "";
    fail_rate = 0.0;
    recover = 0;
    bandwidth = infinity;
    detect_latency = 0.0;
    speculate = None;
    arrival = None;
    target_reliability = None;
    trace = false;
  }

(* Why each workload exists is recorded in BENCHMARK.json and README.md.
   Task times are uniform and stream arrivals Poisson on purpose: with
   exponential, Pareto or bimodal task times, or MMPP bursts, one op's
   time swung 15-35% with the seed, which no run length here averages
   out. Small instances keep an op around a second, so a run's median
   covers many inputs. *)
let all =
  [
    {
      name = "batch-narrow";
      op =
        Solve
          {
            gen =
              {
                plain_gen with
                tasks = 1_000_000;
                machines = 100;
                spec = Workload.Uniform { lo = 1.0; hi = 100.0 };
              };
            solve = { plain_solve with algo = "ls-group:2" };
          };
      instances = 3;
      s_per_op = 3.3;
    };
    {
      name = "faults-recover";
      op =
        Solve
          {
            gen =
              {
                plain_gen with
                tasks = 6000;
                machines = 300;
                spec = Workload.Uniform { lo = 10.0; hi = 30.0 };
              };
            solve =
              {
                plain_solve with
                algo = "ls-group:150";
                fail_rate = 0.3;
                recover = 2;
                bandwidth = 50.0;
                detect_latency = 1.0;
                trace = true;
              };
          };
      instances = 8;
      s_per_op = 0.6;
    };
    {
      name = "stream-speculate";
      op =
        Solve
          {
            gen =
              {
                plain_gen with
                tasks = 3000;
                machines = 100;
                spec = Workload.Uniform { lo = 5.0; hi = 15.0 };
              };
            solve =
              {
                plain_solve with
                algo = "ls-group:25";
                arrival = Some "rate:5";
                speculate = Some 1.2;
              };
          };
      instances = 8;
      s_per_op = 0.75;
    };
    {
      name = "robust-speed";
      op =
        Solve
          {
            gen =
              {
                plain_gen with
                tasks = 3000;
                machines = 10;
                spec = Workload.Uniform { lo = 1.0; hi = 100.0 };
                failp = Some 0.05;
                speed_band = Some "uniform:0.5:2";
                topology = Some "zones:2:0.5";
              };
            solve =
              {
                plain_solve with
                algo = "speedrobust:2";
                target_reliability = Some 0.99;
              };
          };
      instances = 8;
      s_per_op = 1.6;
    };
    {
      name = "paper-artifacts";
      op = Artifacts { ids = [] };
      instances = 3;
      s_per_op = 22.0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The --smoke preset: at most 2000 tasks, one instance, two quick
   artifacts. *)
let smoke w =
  let w = { w with instances = 1 } in
  match w.op with
  | Solve { gen; solve } ->
      { w with op = Solve { gen = { gen with tasks = min gen.tasks 2000 }; solve } }
  | Artifacts _ -> { w with op = Artifacts { ids = [ "fig2"; "tab1" ] } }

let timeout_s w = Float.max 60.0 (10.0 *. w.s_per_op)

let num = Printf.sprintf "%g"

let spec_arg = function
  | Workload.Uniform { lo; hi } -> Printf.sprintf "uniform:%g:%g" lo hi
  | spec -> invalid_arg ("no CLI spelling for workload " ^ Workload.spec_name spec)

let opt flag f = function Some v -> [ flag; f v ] | None -> []

let gen_args g ~seed ~out =
  [
    "gen"; out; "--seed"; string_of_int seed; "--tasks"; string_of_int g.tasks;
    "--machines"; string_of_int g.machines; "--workload"; spec_arg g.spec;
    "--alpha"; num g.alpha;
  ]
  @ opt "--failp" (Printf.sprintf "uniform:%g") g.failp
  @ opt "--speed-band" Fun.id g.speed_band
  @ opt "--topology" Fun.id g.topology

let solve_args s ~seed ~file ~trace =
  [ "solve"; file; "--seed"; string_of_int seed; "--algo"; s.algo ]
  @ (if s.fail_rate > 0.0 then [ "--fail-rate"; num s.fail_rate ] else [])
  @ (if s.recover > 0 then [ "--recover"; string_of_int s.recover ] else [])
  @ (if s.bandwidth < infinity then [ "--bandwidth"; num s.bandwidth ] else [])
  @ (if s.detect_latency > 0.0 then [ "--detect-latency"; num s.detect_latency ]
     else [])
  @ opt "--arrival" Fun.id s.arrival
  @ (if s.arrival <> None then [ "--stream" ] else [])
  @ opt "--speculate" num s.speculate
  @ opt "--target-reliability" num s.target_reliability
  @ opt "--trace" Fun.id trace

let artifacts_args ids ~seed ~csv =
  (match ids with [] -> [ "all" ] | ids -> "run" :: ids)
  @ [ "--quick"; "--domains"; "2"; "--seed"; string_of_int seed; "--csv"; csv ]
