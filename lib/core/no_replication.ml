module Instance = Usched_model.Instance

let lpt_assignment instance =
  Assign.lpt ~m:(Instance.m instance) ~weights:(Instance.ests instance)

let placement ~order instance =
  let m = Instance.m instance in
  let result =
    match order with
    | `Lpt -> lpt_assignment instance
    | `Submission -> Assign.ls ~m ~weights:(Instance.ests instance)
  in
  Placement.singletons ~m result.Assign.assignment
