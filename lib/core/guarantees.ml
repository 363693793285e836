let check_m m = if m < 1 then invalid_arg "Guarantees: m must be >= 1"

let check_alpha alpha =
  if not (Float.is_finite alpha) || alpha < 1.0 then
    invalid_arg "Guarantees: alpha must be >= 1"

let check_delta delta =
  if not (delta > 0.0) then invalid_arg "Guarantees: delta must be > 0"

let check_rho rho = if rho < 1.0 then invalid_arg "Guarantees: rho must be >= 1"

let no_replication_lower_bound ~m ~alpha =
  check_m m;
  check_alpha alpha;
  let a2 = alpha *. alpha and mf = float_of_int m in
  a2 *. mf /. (a2 +. mf -. 1.0)

let no_replication_lower_bound_limit ~alpha =
  check_alpha alpha;
  alpha *. alpha

let lpt_no_choice ~m ~alpha =
  check_m m;
  check_alpha alpha;
  let a2 = alpha *. alpha and mf = float_of_int m in
  2.0 *. a2 *. mf /. ((2.0 *. a2) +. mf -. 1.0)

let lpt_no_restriction ~m ~alpha =
  check_m m;
  check_alpha alpha;
  let a2 = alpha *. alpha and mf = float_of_int m in
  1.0 +. ((mf -. 1.0) /. mf *. (a2 /. 2.0))

let list_scheduling ~m =
  check_m m;
  2.0 -. (1.0 /. float_of_int m)

let full_replication ~m ~alpha =
  Float.min (lpt_no_restriction ~m ~alpha) (list_scheduling ~m)

let ls_group ~m ~k ~alpha =
  check_m m;
  check_alpha alpha;
  if k < 1 || k > m then invalid_arg "Guarantees.ls_group: need 1 <= k <= m";
  let a2 = alpha *. alpha and mf = float_of_int m and kf = float_of_int k in
  (kf *. a2 /. (a2 +. kf -. 1.0) *. (1.0 +. ((kf -. 1.0) /. mf)))
  +. ((mf -. kf) /. mf)

let lpt_offline ~m =
  check_m m;
  (4.0 /. 3.0) -. (1.0 /. (3.0 *. float_of_int m))

let sabo_makespan ~alpha ~delta ~rho1 =
  check_alpha alpha;
  check_delta delta;
  check_rho rho1;
  (1.0 +. delta) *. alpha *. alpha *. rho1

let sabo_memory ~delta ~rho2 =
  check_delta delta;
  check_rho rho2;
  (1.0 +. (1.0 /. delta)) *. rho2

let abo_makespan ~m ~alpha ~delta ~rho1 =
  check_m m;
  check_alpha alpha;
  check_delta delta;
  check_rho rho1;
  2.0 -. (1.0 /. float_of_int m) +. (delta *. alpha *. alpha *. rho1)

let abo_memory ~m ~delta ~rho2 =
  check_m m;
  check_delta delta;
  check_rho rho2;
  (1.0 +. (float_of_int m /. delta)) *. rho2

let tradeoff_impossibility ~makespan_ratio =
  if makespan_ratio <= 1.0 then
    invalid_arg "Guarantees.tradeoff_impossibility: ratio must be > 1";
  1.0 +. (1.0 /. (makespan_ratio -. 1.0))

let abo_beats_sabo_on_makespan ~alpha ~rho1 =
  check_alpha alpha;
  check_rho rho1;
  alpha *. rho1 >= 2.0
