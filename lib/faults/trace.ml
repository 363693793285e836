module Rng = Usched_prng.Rng

type t = { m : int; events : Fault.event list }

let of_events ~m events =
  if m < 1 then invalid_arg "Trace.of_events: m < 1";
  List.iter (Fault.check ~m) events;
  let events =
    List.stable_sort
      (fun (a : Fault.event) (b : Fault.event) ->
        match Float.compare a.time b.time with
        | 0 -> Int.compare a.machine b.machine
        | c -> c)
      events
  in
  { m; events }

let empty ~m = of_events ~m []

let m t = t.m
let events t = t.events

let crashed t =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (e : Fault.event) ->
         match e.kind with Fault.Crash -> Some e.machine | _ -> None)
       t.events)

let check_gen ~p ~horizon name =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Trace.%s: p=%g outside [0, 1]" name p);
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg (Printf.sprintf "Trace.%s: horizon %g must be positive" name horizon)

let per_machine rng ~m ~p ~horizon ~name make =
  check_gen ~p ~horizon name;
  let events = ref [] in
  for machine = 0 to m - 1 do
    (* Draw both variates unconditionally so the stream consumed per
       machine is fixed: traces at different rates from equal seeds share
       their failure times, and a machine's fate never depends on the
       draws of lower-numbered machines' extra parameters. *)
    let hit = Rng.bernoulli rng ~p in
    let time = Rng.float_range rng ~lo:0.0 ~hi:horizon in
    let event = make machine ~time in
    if hit then events := event :: !events
  done;
  of_events ~m !events

let random_crashes rng ~m ~p ~horizon =
  per_machine rng ~m ~p ~horizon ~name:"random_crashes" (fun machine ~time ->
      { Fault.machine; time; kind = Fault.Crash })

let profile_crashes rng ~profile ~horizon =
  let module Failure = Usched_model.Failure in
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg
      (Printf.sprintf "Trace.profile_crashes: horizon %g must be positive"
         horizon);
  let m = Failure.m profile in
  let events = ref [] in
  for machine = 0 to m - 1 do
    (* Same unconditional two-draw structure as [per_machine]: equal
       seeds give paired failure times across profiles, and machine i's
       fate is a function of draws 2i and 2i+1 alone. *)
    let hit = Rng.bernoulli rng ~p:(Failure.p profile machine) in
    let time = Rng.float_range rng ~lo:0.0 ~hi:horizon in
    if hit then events := { Fault.machine; time; kind = Fault.Crash } :: !events
  done;
  of_events ~m !events

let random_outages rng ~m ~p ~horizon ~duration:(lo, hi) =
  if not (0.0 < lo && lo <= hi) then
    invalid_arg "Trace.random_outages: duration range must satisfy 0 < lo <= hi";
  per_machine rng ~m ~p ~horizon ~name:"random_outages" (fun machine ~time ->
      let d = Rng.float_range rng ~lo ~hi in
      { Fault.machine; time; kind = Fault.Outage (time +. d) })

let random_slowdowns rng ~m ~p ~horizon ~factor:(lo, hi) =
  if not (0.0 < lo && lo <= hi && Float.is_finite hi) then
    invalid_arg
      "Trace.random_slowdowns: factor range must satisfy 0 < lo <= hi, finite";
  per_machine rng ~m ~p ~horizon ~name:"random_slowdowns" (fun machine ~time ->
      let f = Rng.float_range rng ~lo ~hi in
      { Fault.machine; time; kind = Fault.Slowdown f })

let revelation ~m ~at factors =
  if Array.length factors <> m then
    invalid_arg
      (Printf.sprintf "Trace.revelation: %d factors for %d machines"
         (Array.length factors) m);
  let events = ref [] in
  for machine = m - 1 downto 0 do
    (* A factor of exactly 1.0 is a no-op; emitting it anyway would
       perturb in-flight completion re-prediction (float resync), so the
       degenerate band would no longer reproduce the plain engine
       bit-for-bit. Skip it. *)
    if factors.(machine) <> 1.0 then
      events :=
        { Fault.machine; time = at; kind = Fault.Slowdown factors.(machine) }
        :: !events
  done;
  of_events ~m !events
