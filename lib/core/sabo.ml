module Instance = Usched_model.Instance

let placement ~delta instance =
  Placement.singletons ~m:(Instance.m instance)
    (Sbo.assignment (Sbo.split ~delta instance))
