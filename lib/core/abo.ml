module Instance = Usched_model.Instance

let placement ~delta instance =
  let split = Sbo.split ~delta instance in
  Placement.pinned_or_full ~m:(Instance.m instance)
    ~replicated:split.Sbo.time_intensive split.Sbo.pi2.Assign.assignment

let phase2_order split =
  Array.of_list (Sbo.s2_tasks split @ Sbo.s1_tasks split)
