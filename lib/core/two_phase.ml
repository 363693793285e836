module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Schedule = Usched_desim.Schedule
module Engine = Usched_desim.Engine

type t = {
  name : string;
  phase1 : Instance.t -> Placement.t;
  phase2 : Instance.t -> Placement.t -> Realization.t -> Schedule.t;
}

let run_full t instance realization =
  let placement = t.phase1 instance in
  let schedule = t.phase2 instance placement realization in
  (placement, schedule)

let run t instance realization = snd (run_full t instance realization)

let makespan t instance realization =
  Schedule.makespan (run t instance realization)

let replay ?speeds order instance placement realization =
  Engine.run ?speeds instance realization ~placement:(Placement.sets placement)
    ~order:(order instance)
