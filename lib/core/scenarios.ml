module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Pool = Usched_parallel.Pool

type t = Realization.t list

let sample ~count ~realize ~rng instance =
  if count < 1 then invalid_arg "Scenarios.sample: count < 1";
  List.init count (fun _ -> realize instance rng)

type evaluation = {
  algorithm : Two_phase.t;
  worst : float;
  mean : float;
  per_scenario : float array;
}

let evaluate ?(domains = 1) algorithm instance scenarios =
  if scenarios = [] then invalid_arg "Scenarios.evaluate: empty scenario set";
  let placement = algorithm.Two_phase.phase1 instance in
  (* Phase 2 replays are independent reads of the committed placement,
     so scenarios shard across domains; [per_scenario.(i)] is the same
     value at any domain count. *)
  let scen = Array.of_list scenarios in
  let per_scenario =
    Pool.parallel_init ~domains (Array.length scen) (fun i ->
        Schedule.makespan
          (algorithm.Two_phase.phase2 instance placement scen.(i)))
  in
  let worst = Array.fold_left Float.max neg_infinity per_scenario in
  let mean =
    Array.fold_left ( +. ) 0.0 per_scenario
    /. float_of_int (Array.length per_scenario)
  in
  { algorithm; worst; mean; per_scenario }

type criterion = Minimize_worst | Minimize_mean

let score criterion evaluation =
  match criterion with
  | Minimize_worst -> evaluation.worst
  | Minimize_mean -> evaluation.mean

let select ?domains criterion ~portfolio instance scenarios =
  match portfolio with
  | [] -> invalid_arg "Scenarios.select: empty portfolio"
  | first :: rest ->
      List.fold_left
        (fun best algorithm ->
          let candidate = evaluate ?domains algorithm instance scenarios in
          if score criterion candidate < score criterion best then candidate
          else best)
        (evaluate ?domains first instance scenarios)
        rest
