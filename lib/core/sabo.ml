module Instance = Usched_model.Instance

let placement ~delta instance =
  Placement.singletons ~m:(Instance.m instance)
    (Sbo.assignment (Sbo.split ~delta instance))

let algorithm ~delta =
  {
    Two_phase.name = Printf.sprintf "SABO(delta=%g)" delta;
    phase1 = (fun instance -> placement ~delta instance);
    phase2 = Two_phase.lpt_order_phase2;
  }
