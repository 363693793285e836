(* Tasks are stored column-wise: [ests] and [sizes] are flat float
   arrays (unboxed), so an instance of n tasks is two n-float blocks
   rather than n records each pointing at two boxed floats. [Task.t] is
   only the row view that {!make} takes and {!tasks} returns. The
   instance owns both columns and hands them out uncopied; nothing
   writes into them once built. *)
type t = {
  m : int;
  alpha : Uncertainty.alpha;
  ests : float array;
  sizes : float array;
  failure : Failure.t option;
  speed_band : Speed_band.t option;
  topology : Topology.t option;
  lpt : int array option Atomic.t;
      (** [lpt_order], sorted on first use. A constructor that builds new
          columns makes a fresh cell; the [with_*] copies keep the
          columns and share it. Domains that race to fill it store equal
          orders, and any one of them may win. *)
}

(* An attachment must cover exactly the instance's [m] machines. *)
let check_covers what machines_of ~m =
  Option.iter (fun x ->
      if machines_of x <> m then
        invalid_arg
          (Printf.sprintf "Instance.make: %s covers %d machines, instance has %d"
             what (machines_of x) m))

let max_machines = 1 lsl 20

let check_m m =
  if m < 1 then invalid_arg "Instance.make: need at least one machine";
  if m > max_machines then invalid_arg "Instance.make: too many machines"

let build ?failure ?speed_band ?topology ~m ~alpha ~ests ~sizes () =
  check_m m;
  check_covers "failure profile" Failure.m ~m failure;
  check_covers "speed band" Speed_band.m ~m speed_band;
  check_covers "topology" Topology.m ~m topology;
  { m; alpha; ests; sizes; failure; speed_band; topology; lpt = Atomic.make None }

let make ?failure ?speed_band ?topology ~m ~alpha tasks =
  check_m m;
  Array.iteri
    (fun i task ->
      if Task.id task <> i then
        invalid_arg "Instance.make: task ids must be 0..n-1 in order")
    tasks;
  build ?failure ?speed_band ?topology ~m ~alpha
    ~ests:(Array.map Task.est tasks) ~sizes:(Array.map Task.size tasks) ()

(* [Task.make]'s checks, with its messages, on the flat columns. *)
let[@inline] check_task ~est ~size =
  if not (est > 0.0) then invalid_arg "Task.make: estimate must be > 0";
  if est = Float.infinity then invalid_arg "Task.make: estimate must be finite";
  if size < 0.0 then invalid_arg "Task.make: negative size";
  if not (Float.is_finite size) then invalid_arg "Task.make: size must be finite"

let check_columns ~ests ~sizes =
  for i = 0 to Array.length ests - 1 do
    check_task ~est:ests.(i) ~size:sizes.(i)
  done

let of_columns ?failure ?speed_band ?topology ~m ~alpha ~ests ~sizes () =
  if Array.length sizes <> Array.length ests then
    invalid_arg "Instance.of_columns: sizes length mismatch";
  check_columns ~ests ~sizes;
  build ?failure ?speed_band ?topology ~m ~alpha ~ests ~sizes ()

let of_ests ?failure ?speed_band ?topology ~m ~alpha ?sizes ests =
  let n = Array.length ests in
  let sizes =
    match sizes with
    | Some s when Array.length s <> n ->
        invalid_arg "Instance.of_ests: sizes length mismatch"
    | Some s -> Array.copy s
    | None -> Array.make n 1.0
  in
  let ests = Array.copy ests in
  check_columns ~ests ~sizes;
  build ?failure ?speed_band ?topology ~m ~alpha ~ests ~sizes ()

let n t = Array.length t.ests
let m t = t.m
let alpha t = t.alpha
let alpha_value t = Uncertainty.to_float t.alpha

let tasks t =
  Array.init (n t) (fun i -> { Task.id = i; est = t.ests.(i); size = t.sizes.(i) })

let[@inline] est t j = t.ests.(j)
let[@inline] size t j = t.sizes.(j)
let ests t = t.ests
let sizes t = t.sizes
let failure t = t.failure

let failure_or_default t =
  match t.failure with
  | Some f -> f
  | None -> Failure.uniform ~m:t.m ~p:Failure.default_p

(* The [with_*] copies share [t]'s columns: nothing mutates them. *)
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

let total_size t = Array.fold_left ( +. ) 0.0 t.sizes
let max_size t = Array.fold_left Float.max 0.0 t.sizes

(* The paper's LPT order on the columns: decreasing estimate, ties by
   increasing id, sorted once per instance. *)
let lpt_order t =
  match Atomic.get t.lpt with
  | Some order -> order
  | None ->
      let order = Argsort.decreasing t.ests in
      Atomic.set t.lpt (Some order);
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
