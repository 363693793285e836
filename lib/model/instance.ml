type t = {
  m : int;
  alpha : Uncertainty.alpha;
  tasks : Task.t array;
  failure : Failure.t option;
  speed_band : Speed_band.t option;
  topology : Topology.t option;
}

(* An attachment must cover exactly the instance's [m] machines. *)
let check_covers what machines_of ~m =
  Option.iter (fun x ->
      if machines_of x <> m then
        invalid_arg
          (Printf.sprintf "Instance.make: %s covers %d machines, instance has %d"
             what (machines_of x) m))

let max_machines = 1 lsl 20

let make ?failure ?speed_band ?topology ~m ~alpha tasks =
  if m < 1 then invalid_arg "Instance.make: need at least one machine";
  if m > max_machines then invalid_arg "Instance.make: too many machines";
  Array.iteri
    (fun i task ->
      if Task.id task <> i then
        invalid_arg "Instance.make: task ids must be 0..n-1 in order")
    tasks;
  check_covers "failure profile" Failure.m ~m failure;
  check_covers "speed band" Speed_band.m ~m speed_band;
  check_covers "topology" Topology.m ~m topology;
  { m; alpha; tasks = Array.copy tasks; failure; speed_band; topology }

let of_ests ?failure ?speed_band ?topology ~m ~alpha ?sizes ests =
  let n = Array.length ests in
  (match sizes with
  | Some s when Array.length s <> n ->
      invalid_arg "Instance.of_ests: sizes length mismatch"
  | _ -> ());
  let size_of i = match sizes with None -> 1.0 | Some s -> s.(i) in
  let tasks =
    Array.init n (fun i -> Task.make ~id:i ~est:ests.(i) ~size:(size_of i) ())
  in
  make ?failure ?speed_band ?topology ~m ~alpha tasks

let n t = Array.length t.tasks
let m t = t.m
let alpha t = t.alpha
let alpha_value t = Uncertainty.to_float t.alpha
let tasks t = Array.copy t.tasks
let est t j = Task.est t.tasks.(j)
let size t j = Task.size t.tasks.(j)
let ests t = Array.map Task.est t.tasks
let sizes t = Array.map Task.size t.tasks
let failure t = t.failure

let failure_or_default t =
  match t.failure with
  | Some f -> f
  | None -> Failure.uniform ~m:t.m ~p:Failure.default_p

(* The [with_*] copies share [t]'s task array: nothing mutates it. *)
let with_failure t failure =
  check_covers "failure profile" Failure.m ~m:t.m failure;
  { t with failure }

let speed_band t = t.speed_band

let speed_band_or_nominal t =
  match t.speed_band with
  | Some b -> b
  | None -> Speed_band.nominal ~m:t.m

let with_speed_band t speed_band =
  check_covers "speed band" Speed_band.m ~m:t.m speed_band;
  { t with speed_band }

let topology t = t.topology

let topology_or_uniform t =
  match t.topology with Some tp -> tp | None -> Topology.uniform ~m:t.m

let with_topology t topology =
  check_covers "topology" Topology.m ~m:t.m topology;
  { t with topology }

let total_size t =
  Array.fold_left (fun acc task -> acc +. Task.size task) 0.0 t.tasks

let max_size t =
  Array.fold_left (fun acc task -> Float.max acc (Task.size task)) 0.0 t.tasks

let lpt_order t =
  let order = Array.init (n t) (fun j -> j) in
  Array.sort (fun a b -> Task.compare_est_desc t.tasks.(a) t.tasks.(b)) order;
  order

let pp ppf t =
  Format.fprintf ppf "instance(n=%d, m=%d, %a%t%t%t)" (n t) t.m Uncertainty.pp
    t.alpha
    (fun ppf ->
      match t.failure with
      | None -> ()
      | Some f -> Format.fprintf ppf ", %a" Failure.pp f)
    (fun ppf ->
      match t.speed_band with
      | None -> ()
      | Some b -> Format.fprintf ppf ", %a" Speed_band.pp b)
    (fun ppf ->
      match t.topology with
      | None -> ()
      | Some tp -> Format.fprintf ppf ", %a" Topology.pp tp)
