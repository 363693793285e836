(* Recovery policies. See recovery.mli for the model description.

   [none] stays a single shared constant so that [is_none] can
   recognize it physically ([==]); the engine does not, since each
   recovery mechanism is gated by its own parameter. *)

type target = Fixed of int | Degree

type t = {
  detection_latency : float;
  rereplication_target : target;
  bandwidth : float;
  checkpoint_interval : float;
}

let none =
  {
    detection_latency = 0.0;
    rereplication_target = Fixed 0;
    bandwidth = infinity;
    checkpoint_interval = 0.0;
  }

let bad fmt = Format.kasprintf invalid_arg fmt

let check_finite_nonneg ~what x =
  if Float.is_nan x then bad "Recovery.make: %s is NaN" what;
  if x < 0.0 then bad "Recovery.make: negative %s (%g)" what x;
  if x = infinity then bad "Recovery.make: infinite %s" what

let make ?(detection_latency = 0.0) ?(rereplication_target = Fixed 0)
    ?(bandwidth = infinity) ?(checkpoint_interval = 0.0) () =
  check_finite_nonneg ~what:"detection latency" detection_latency;
  check_finite_nonneg ~what:"checkpoint interval" checkpoint_interval;
  if Float.is_nan bandwidth then bad "Recovery.make: bandwidth is NaN";
  if not (bandwidth > 0.0) then
    bad "Recovery.make: bandwidth must be > 0 (got %g)" bandwidth;
  (match rereplication_target with
  | Fixed r when r < 0 ->
      bad "Recovery.make: negative re-replication target (%d)" r
  | Fixed _ | Degree -> ());
  { detection_latency; rereplication_target; bandwidth; checkpoint_interval }

let is_none t = t == none
let is_active t = not (is_none t)

let heals t = match t.rereplication_target with Fixed r -> r > 0 | Degree -> true

let target_to_string = function
  | Fixed r -> string_of_int r
  | Degree -> "degree"

let target_of_string raw =
  Usched_model.Spec_text.with_grammar "a count >= 0 or degree"
    (if String.lowercase_ascii raw = "degree" then Ok Degree
     else
       Result.map
         (fun r -> Fixed r)
         (Usched_model.Spec_text.(read Nat) "re-replication target" raw))

(* Path-dependent transfer time. Without a topology this is exactly the
   scalar-bandwidth arithmetic the engine hard-coded ([size / bandwidth]
   — the same float operations, so the refactor is bit-for-bit
   invisible); with one, the path adds its latency and the effective
   rate is the slower of the policy's pipeline and the zone link.
   Intra-zone paths have infinite link bandwidth and zero latency, so a
   uniform (single-zone) topology reproduces the scalar policy
   bit-for-bit too — [Float.min bw infinity = bw] and [0.0 +. x = x]
   for the nonnegative durations involved. *)
let transfer_time ?topology t ~src ~dst ~size =
  match topology with
  | None -> size /. t.bandwidth
  | Some topo ->
      if Usched_model.Topology.same_zone topo src dst then size /. t.bandwidth
      else
        Usched_model.Topology.path_latency topo ~src ~dst
        +. (size
           /. Float.min t.bandwidth
                (Usched_model.Topology.path_bandwidth topo ~src ~dst))

let pp ppf t =
  if is_none t then Format.fprintf ppf "recovery(none)"
  else
    Format.fprintf ppf
      "recovery(detect=%g, target=%s, bw=%g, ckpt=%g)" t.detection_latency
      (target_to_string t.rereplication_target)
      t.bandwidth t.checkpoint_interval
