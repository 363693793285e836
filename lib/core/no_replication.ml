module Instance = Usched_model.Instance

(* [Assign.lpt] on the instance's own LPT order, which the replay
   reuses instead of sorting the estimates again. *)
let lpt_assignment instance =
  Assign.list_assign ~m:(Instance.m instance) ~weights:(Instance.ests instance)
    ~order:(Instance.lpt_order instance)

let placement ~order instance =
  let m = Instance.m instance in
  let result =
    match order with
    | `Lpt -> lpt_assignment instance
    | `Submission -> Assign.ls ~m ~weights:(Instance.ests instance)
  in
  Placement.singletons ~m result.Assign.assignment
