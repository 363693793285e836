(* Dispatch layer: spec parsing, the golden equivalence of the default
   policy with the pre-refactor engine (bit for bit, healthy and faulty,
   metrics and recovery on/off), the re-dispatch determinism contract,
   hand-built scenarios for each alternative policy, and the
   policy/fault reachability property (under full replication every
   work-conserving policy completes the same task set). *)

module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Set_table = Usched_model.Set_table
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Recovery = Usched_faults.Recovery
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json
module Rng = Usched_prng.Rng
module Topology = Usched_model.Topology

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let submission_order n = Array.init n (fun j -> j)
let entries s = Array.init (Schedule.n s) (Schedule.entry s)

let finished_entry outcome j =
  match outcome.Engine.fates.(j) with
  | Engine.Finished e -> e
  | Engine.Stranded -> Alcotest.failf "task %d stranded" j

let outage ~machine ~time ~until =
  { Fault.machine; time; kind = Fault.Outage until }

(* A view's holder fields from per-task sets: the interned sets, each
   task's set, and the tasks listed by set in [order]. *)
let interned placement ~order =
  let sets, group_of = Set_table.intern_all placement in
  let first, members = Set_table.members sets group_of ~order in
  (sets, group_of, first, members)

(* The machines a view says hold task [j]'s data now. *)
let holders (v : Dispatch.view) j =
  Set_table.get v.Dispatch.sets v.Dispatch.group_of.(j)

(* --------------------------- spec parsing --------------------------- *)

let spec_names () =
  checks "default name" "list-priority" (Dispatch.name Dispatch.default);
  List.iter
    (fun spec ->
      match Dispatch.spec_of_string (Dispatch.name spec) with
      | Ok spec' ->
          checkb
            (Printf.sprintf "round-trip %s" (Dispatch.name spec))
            true (spec = spec')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    (Dispatch.builtin @ [ Dispatch.Random_tiebreak 42 ]);
  checkb "bare random means seed 0" true
    (Dispatch.spec_of_string "random" = Ok (Dispatch.Random_tiebreak 0));
  (match Dispatch.spec_of_string "nope" with
  | Ok _ -> Alcotest.fail "bogus name accepted"
  | Error msg ->
      let contains frag =
        let fl = String.length frag and ml = String.length msg in
        let rec scan i =
          i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1))
        in
        scan 0
      in
      checkb "error lists the valid names" true
        (List.for_all contains
           [ "list-priority"; "least-loaded"; "earliest-completion"; "locality" ]));
  (match Dispatch.spec_of_string "random:x" with
  | Ok _ -> Alcotest.fail "bad seed accepted"
  | Error _ -> ());
  checki "five built-in families" 5 (List.length Dispatch.builtin)

(* Every name the usage string advertises parses, and every builtin
   policy family is advertised. *)
let known_names_parse () =
  let advertised =
    String.split_on_char '|' Dispatch.known_names |> List.map String.trim
  in
  Alcotest.(check int) "five families" 5 (List.length advertised);
  List.iter
    (fun name ->
      let concrete =
        match String.index_opt name ':' with
        | Some k -> String.sub name 0 k ^ ":7"
        | None -> name
      in
      checkb (Printf.sprintf "%s parses" concrete) true
        (Result.is_ok (Dispatch.spec_of_string concrete)))
    advertised;
  List.iter
    (fun spec ->
      let family = List.hd (String.split_on_char ':' (Dispatch.name spec)) in
      checkb (Printf.sprintf "%s advertised" family) true
        (List.exists (String.starts_with ~prefix:family) advertised))
    Dispatch.builtin

(* ----------------------- golden equivalence ------------------------- *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, p, seed))

let scenario_print (n, m, k, p, seed) =
  Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d" n m k p seed

let scenario = QCheck.make ~print:scenario_print scenario_gen

let build (n, m, k, p, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let sizes = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:4.0) in
  let instance =
    Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ~sizes ests
  in
  let realization = Realization.uniform_factor instance rng in
  let placement =
    Array.init n (fun j ->
        Bitset.of_list m (List.init k (fun i -> (j + i) mod m)))
  in
  let order = Instance.lpt_order instance in
  let horizon = 2.0 *. Realization.total realization in
  let faults =
    Helpers.merge_traces
      (Trace.random_crashes rng ~m ~p ~horizon)
      (Helpers.merge_traces
         (Trace.random_outages rng ~m ~p ~horizon ~duration:(0.5, 5.0))
         (Trace.random_slowdowns rng ~m ~p ~horizon ~factor:(0.2, 0.9)))
  in
  (instance, realization, placement, order, faults)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

let outcomes_identical (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.completed = b.Engine.completed
  && a.Engine.stranded = b.Engine.stranded
  && a.Engine.makespan = b.Engine.makespan
  && a.Engine.wasted = b.Engine.wasted
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Engine.Stranded, Engine.Stranded -> true
         | Engine.Finished e, Engine.Finished f -> entries_equal e f
         | _ -> false)
       a.Engine.fates b.Engine.fates
  && Json.to_string (Metrics.to_json a.Engine.metrics)
     = Json.to_string (Metrics.to_json b.Engine.metrics)

(* THE golden property of the tentpole refactor: passing the default
   policy explicitly is bit-for-bit the engine with no policy argument —
   fates, floats, events, metrics — across mixed fault regimes,
   speculation on/off, metrics on/off, and recovery none/neutral/active.
   Any drift the dispatch extraction introduced in the default path
   shows up here. *)
let prop_default_policy_is_golden =
  QCheck.Test.make
    ~name:"explicit list-priority is bit-for-bit the default engine"
    ~count:320 scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, faults = build s in
      let speculation = if seed mod 3 = 0 then Some 1.3 else None in
      let metrics_on = seed mod 2 = 0 in
      let recovery =
        match seed mod 5 with
        | 0 | 1 ->
            Recovery.make ~detection_latency:0.5 ~rereplication_target:(Recovery.Fixed 2)
              ~bandwidth:1.0 ~checkpoint_interval:1.0 ()
        | 2 -> Recovery.make ()
        | _ -> Recovery.none
      in
      let registry () = if metrics_on then Metrics.create () else Metrics.disabled in
      let a, ev_a =
        Engine.run_faulty_traced ?speculation ~recovery ~metrics:(registry ())
          instance realization ~faults ~placement:(Helpers.holders placement) ~order
      in
      let b, ev_b =
        Engine.run_faulty_traced ?speculation
          ~dispatch:Dispatch.List_priority ~recovery ~metrics:(registry ())
          instance realization ~faults ~placement:(Helpers.holders placement) ~order
      in
      outcomes_identical a b && ev_a = ev_b)

(* Same golden check for the healthy engine: schedule and event log. *)
let prop_default_policy_is_golden_healthy =
  QCheck.Test.make
    ~name:"healthy engine: explicit list-priority is bit-for-bit default"
    ~count:300 scenario (fun ((_, _, _, _, seed) as s) ->
      let instance, realization, placement, order, _ = build s in
      let m = Instance.m instance in
      let speeds =
        if seed mod 2 = 0 then
          Some (Array.init m (fun i -> 0.5 +. (0.5 *. float_of_int (i + 1))))
        else None
      in
      let a, ev_a =
        Engine.run_traced ?speeds instance realization
          ~placement:(Helpers.holders placement) ~order
      in
      let b, ev_b =
        Engine.run_traced ?speeds ~dispatch:Dispatch.List_priority instance
          realization ~placement:(Helpers.holders placement) ~order
      in
      ev_a = ev_b
      && Array.for_all2 entries_equal (entries a) (entries b))

(* Work conservation: whichever policy runs, the healthy engine never
   raises [Unschedulable] on well-formed inputs and schedules every
   task. *)
let prop_policies_work_conserving =
  QCheck.Test.make ~name:"every policy schedules every task (healthy)"
    ~count:200 scenario (fun s ->
      let instance, realization, placement, order, _ = build s in
      List.for_all
        (fun dispatch ->
          let schedule =
            Engine.run ~dispatch instance realization
              ~placement:(Helpers.holders placement) ~order
          in
          Array.length (entries schedule) = Instance.n instance)
        Dispatch.builtin)

(* The reachability property: under full replication, with at least one
   machine that never fails and healing enabled, every work-conserving
   policy completes exactly the same task set as the default — namely
   all of them. Stranding is a property of the data, not the rule. *)
let reach_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 2 5 in
    let* p = float_range 0.0 1.0 in
    let* seed = int_bound 1_000_000 in
    return (n, m, p, seed))

let reach_scenario =
  QCheck.make
    ~print:(fun (n, m, p, seed) ->
      Printf.sprintf "n=%d m=%d p=%.3f seed=%d" n m p seed)
    reach_gen

let prop_policy_reachability =
  QCheck.Test.make
    ~name:"full replication + survivor: all policies complete the same set"
    ~count:300 reach_scenario (fun (n, m, p, seed) ->
      let rng = Rng.create ~seed () in
      let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
      let realization = Realization.uniform_factor instance rng in
      let placement () = Array.init n (fun _ -> Bitset.full m) in
      let order = Instance.lpt_order instance in
      let horizon = 2.0 *. Realization.total realization in
      (* Machine m-1 never faults, so some full-replica holder survives
         and every task stays reachable. *)
      let faults =
        Trace.of_events ~m
          (List.concat_map
             (fun i ->
               let events = ref [] in
               if Rng.float rng < p then
                 events :=
                   {
                     Fault.machine = i;
                     time = Rng.float_range rng ~lo:0.0 ~hi:horizon;
                     kind = Fault.Crash;
                   }
                   :: !events;
               if Rng.float rng < p then begin
                 let t = Rng.float_range rng ~lo:0.0 ~hi:horizon in
                 events :=
                   outage ~machine:i ~time:t
                     ~until:(t +. Rng.float_range rng ~lo:0.5 ~hi:5.0)
                   :: !events
               end;
               !events)
             (List.init (m - 1) (fun i -> i)))
      in
      let recovery =
        Recovery.make ~detection_latency:0.25 ~rereplication_target:(Recovery.Fixed 2)
          ~bandwidth:2.0 ()
      in
      let completed_set dispatch =
        let outcome =
          Engine.run_faulty ~dispatch ~recovery instance realization ~faults
            ~placement:(Helpers.holders (placement ())) ~order
        in
        ( Array.map
            (function Engine.Finished _ -> true | Engine.Stranded -> false)
            outcome.Engine.fates,
          outcome.Engine.stranded )
      in
      let base_done, base_stranded = completed_set Dispatch.default in
      base_stranded = []
      && List.for_all
           (fun dispatch ->
             let done_, stranded = completed_set dispatch in
             stranded = base_stranded && done_ = base_done)
           Dispatch.builtin)

(* ------------------- re-dispatch determinism ------------------------ *)

(* Pins the contract now homed in [Dispatch.redispatch_order]: machines
   freed at the same instant (here a speculative race ending) look for
   new work in increasing machine id.

   Construction: m=3, submission order. t0 lives on {0} (est=actual=6),
   t1 on {0,1,2} (est=actual=9), t2 on {0,2} (est 4, actual 8).
   t=0: m0 starts t0, m1 starts t1, m2 starts t2. beta=1 arms t2's
   straggler check at t=4 (no idle holder yet). t=6: m0 finishes t0 and
   speculates t2 (backup would finish at 14). t=7.5: an outage kills m1;
   t1 returns to the pool, every machine busy. t=8: t2's original wins
   on m2; the backup on m0 is cancelled. Machines 2 and 0 are freed at
   the same instant — re-dispatch order [0; 2] hands t1 to machine 0
   (start 8, finish 17). An unsorted [2; 0] would hand it to machine 2:
   that is exactly the regression this test catches. *)
let redispatch_order_pinned () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0) [| 6.0; 9.0; 4.0 |]
  in
  let realization = Realization.of_actuals instance [| 6.0; 9.0; 8.0 |] in
  let placement =
    [| Bitset.of_list 3 [ 0 ]; Bitset.of_list 3 [ 0; 1; 2 ]; Bitset.of_list 3 [ 0; 2 ] |]
  in
  let faults =
    Trace.of_events ~m:3 [ outage ~machine:1 ~time:7.5 ~until:100.0 ]
  in
  let outcome, events =
    Engine.run_faulty_traced ~speculation:1.0 instance realization ~faults
      ~placement:(Helpers.holders placement) ~order:(submission_order 3)
  in
  checki "all complete" 3 outcome.Engine.completed;
  let e1 = finished_entry outcome 1 in
  checki "t1 re-dispatched to the lowest freed machine id" 0
    e1.Schedule.machine;
  close "t1 restarts when the race ends" 8.0 e1.Schedule.start;
  close "t1 finishes from scratch" 17.0 e1.Schedule.finish;
  checkb "the backup on m0 was cancelled at t=8" true
    (List.exists
       (function
         | Engine.Cancelled { time; machine = 0; task = 2 } -> time = 8.0
         | _ -> false)
       events);
  (* The contract itself, as exposed by the policy value. *)
  let sets, group_of, first, members =
    interned placement ~order:(submission_order 3)
  in
  let view =
    {
      Dispatch.n = 3;
      m = 3;
      order = submission_order 3;
      pos_of = submission_order 3;
      dispatchable = [| true; true; true |];
      sets;
      group_of;
      first;
      members;
      est = Array.init 3 (Instance.est instance);
      speed = [| 1.0; 1.0; 1.0 |];
      load = [| 0.0; 0.0; 0.0 |];
      now = [| 0.0 |];
      available = (fun _ -> true);
      topology = None;
      size = [||];
    }
  in
  let t = Dispatch.make Dispatch.default view in
  Alcotest.(check (pair int int))
    "redispatch_order sorts by machine id" (0, 2)
    (Dispatch.redispatch_order t 2 0);
  Alcotest.(check (pair int int))
    "an ordered pair stays" (0, 2)
    (Dispatch.redispatch_order t 0 2)

(* ----------------------- alternative policies ----------------------- *)

(* The task [t] hands idle [machine] at the view's clock, if any. *)
let select t ~machine =
  match Dispatch.select_machine t ~machine with -1 -> None | j -> Some j

(* Least-loaded holder, probed directly on the view: machine 0 carries
   load 10 while machine 1 — available, load 0 — also holds t0. The
   deferral is visible only mid-run (loads start all-equal, and with two
   machines the idle one is always a least-loaded holder), so the test
   sets the loads directly rather than driving a full simulation. *)
let least_loaded_defers () =
  let sets, group_of, first, members =
    interned
      [| Bitset.of_list 2 [ 0; 1 ]; Bitset.of_list 2 [ 0 ] |]
      ~order:[| 0; 1 |]
  in
  let dispatchable = [| true; true |] in
  let load = [| 10.0; 0.0 |] in
  let view =
    {
      Dispatch.n = 2;
      m = 2;
      order = [| 0; 1 |];
      pos_of = [| 0; 1 |];
      dispatchable;
      sets;
      group_of;
      first;
      members;
      est = [| 3.0; 5.0 |];
      speed = [| 1.0; 1.0 |];
      load;
      now = [| 0.0 |];
      available = (fun _ -> true);
      topology = None;
      size = [||];
    }
  in
  (* Least-loaded has m0 defer t0 to the idle holder and fall through to
     t1, which only m0 holds. The default rule takes t0 outright. *)
  let ll = Dispatch.make Dispatch.Least_loaded_holder view in
  let lp = Dispatch.make Dispatch.List_priority view in
  Alcotest.(check (option int))
    "default takes the first eligible task" (Some 0)
    (select lp ~machine:0);
  Alcotest.(check (option int))
    "least-loaded defers t0 to the idle holder and takes t1" (Some 1)
    (select ll ~machine:0);
  Alcotest.(check (option int))
    "machine 1 is its own least-loaded holder" (Some 0)
    (select ll ~machine:1);
  (* Fallback keeps the rule work-conserving: with t1 out of the pool,
     m0's only eligible task still prefers the lighter holder, but m0
     must take it rather than idle. *)
  dispatchable.(1) <- false;
  Alcotest.(check (option int))
    "work-conserving fallback: deferring everything still selects" (Some 0)
    (select ll ~machine:0)

(* Earliest estimated completion = SPT restricted to held data. *)
let earliest_completion_is_spt () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 9.0; 2.0; 5.0 |]
  in
  let realization = Realization.exact instance in
  let placement =
    [| Bitset.full 2; Bitset.of_list 2 [ 0 ]; Bitset.full 2 |]
  in
  (* LPT order is [0;2;1]. Default m0 takes t0 (est 9); SPT takes t1
     (est 2), then t2 (est 5), then t0. *)
  let schedule =
    Engine.run ~dispatch:Dispatch.Earliest_estimated_completion instance
      realization
        ~placement:(Helpers.holders placement) ~order:(Instance.lpt_order instance)
  in
  let es = entries schedule in
  checki "t1 first on m0" 0 es.(1).Schedule.machine;
  close "t1 starts immediately" 0.0 es.(1).Schedule.start;
  (* m1 holds only t0 and t2: takes t2 (est 5) over t0 (est 9). *)
  checki "t2 on m1" 1 es.(2).Schedule.machine;
  close "t2 starts immediately" 0.0 es.(2).Schedule.start;
  close "t0 waits behind the shorter t1" 2.0 es.(0).Schedule.start;
  (* Ties fall back to priority order: with all-equal estimates the
     policy is bit-for-bit list-priority. *)
  let tied =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 3.0; 3.0; 3.0 |]
  in
  let tied_r = Realization.exact tied in
  let tied_p = Array.make 3 (Bitset.full 2) in
  let order = submission_order 3 in
  let a = Engine.run tied tied_r ~placement:(Helpers.holders tied_p) ~order in
  let b =
    Engine.run ~dispatch:Dispatch.Earliest_estimated_completion tied tied_r
      ~placement:(Helpers.holders tied_p) ~order
  in
  checkb "all-tied SPT equals list-priority" true
    (Array.for_all2 entries_equal (entries a) (entries b))

let random_tiebreak_behavior () =
  (* Distinct estimates: no ties, so any seed coincides with the default
     rule. *)
  let distinct =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.0)
      [| 7.0; 5.0; 3.0; 2.0; 1.0 |]
  in
  let r = Realization.exact distinct in
  let p = Array.make 5 (Bitset.full 3) in
  let order = Instance.lpt_order distinct in
  let base = Engine.run distinct r ~placement:(Helpers.holders p) ~order in
  List.iter
    (fun seed ->
      let s =
        Engine.run ~dispatch:(Dispatch.Random_tiebreak seed) distinct r
          ~placement:(Helpers.holders p) ~order
      in
      checkb
        (Printf.sprintf "distinct estimates: seed %d = default" seed)
        true
        (Array.for_all2 entries_equal (entries base)
           (entries s)))
    [ 0; 1; 17 ];
  (* Identical estimates: the rule is deterministic given the seed, and
     some seed pair must disagree on the assignment. *)
  let tied =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.0) (Array.make 9 4.0)
  in
  let tied_r = Realization.exact tied in
  let tied_p = Array.make 9 (Bitset.full 3) in
  let torder = submission_order 9 in
  let run_seed seed =
    entries
      (Engine.run ~dispatch:(Dispatch.Random_tiebreak seed) tied tied_r
         ~placement:(Helpers.holders tied_p) ~order:torder)
  in
  checkb "same seed, same schedule" true
    (Array.for_all2 entries_equal (run_seed 5) (run_seed 5));
  let machine_of seed = Array.map (fun e -> e.Schedule.machine) (run_seed seed) in
  checkb "some seeds shuffle the tied assignment" true
    (List.exists
       (fun seed -> machine_of seed <> machine_of 0)
       [ 1; 2; 3; 4; 5; 6; 7 ])

(* Reference equivalence for the zero-alloc least-loaded rewrite: the
   original algorithm, frozen here with its refs and [Bitset.iter]
   closure, probed against the module's implementation on random views —
   arbitrary loads, holder sets, availability, and priority order. *)
let reference_least_loaded (v : Dispatch.view) ~machine:i =
  let fallback = ref None and result = ref None in
  let pos = ref 0 in
  while !result = None && !pos < v.Dispatch.n do
    let j = v.Dispatch.order.(!pos) in
    if v.Dispatch.dispatchable.(j) && Bitset.mem (holders v j) i
    then begin
      if !fallback = None then fallback := Some j;
      let better = ref false in
      Bitset.iter
        (fun k ->
          if
            k <> i
            && v.Dispatch.available k
            && v.Dispatch.load.(k) < v.Dispatch.load.(i)
          then better := true)
        (holders v j);
      if not !better then result := Some j
    end;
    incr pos
  done;
  if !result <> None then !result else !fallback

let view_scenario =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    QCheck.Gen.(
      let* n = int_range 1 10 in
      let* m = int_range 1 5 in
      let* seed = int_bound 1_000_000 in
      return (n, m, seed))

let prop_least_loaded_matches_reference =
  QCheck.Test.make
    ~name:"least-loaded select matches the pre-rewrite reference" ~count:500
    view_scenario (fun (n, m, seed) ->
      let rng = Rng.create ~seed () in
      let order = Array.init n (fun j -> j) in
      Helpers.shuffle rng order;
      let pos_of = Array.make n 0 in
      Array.iteri (fun p j -> pos_of.(j) <- p) order;
      let holders =
        Array.init n (fun _ ->
            let s = Bitset.create m in
            for i = 0 to m - 1 do
              if Rng.bernoulli rng ~p:0.6 then Bitset.add s i
            done;
            if Bitset.cardinal s = 0 then Bitset.add s (Rng.int rng m);
            s)
      in
      let dispatchable = Array.init n (fun _ -> Rng.bernoulli rng ~p:0.7) in
      (* Coin-flip duplicated loads so strict-inequality ties are hit. *)
      let load =
        Array.init m (fun _ ->
            if Rng.bernoulli rng ~p:0.3 then 5.0
            else Rng.float_range rng ~lo:0.0 ~hi:10.0)
      in
      let avail = Array.init m (fun _ -> Rng.bernoulli rng ~p:0.8) in
      let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:9.0) in
      let sets, group_of, first, members = interned holders ~order in
      let view =
        {
          Dispatch.n;
          m;
          order;
          pos_of;
          dispatchable;
          sets;
          group_of;
          first;
          members;
          est = ests;
          speed = Array.make m 1.0;
          load;
          now = [| 0.0 |];
          available = (fun k -> avail.(k));
          topology = None;
          size = [||];
        }
      in
      let ll = Dispatch.make Dispatch.Least_loaded_holder view in
      Array.for_all
        (fun i ->
          select ll ~machine:i
          = reference_least_loaded view ~machine:i)
        (Array.init m (fun i -> i)))

(* Reference equivalence for the set index behind every policy. Each
   policy's meaning is stateless — list-priority's is the
   minimum-position dispatchable task holding the asking machine — and
   the index (a cursor per interned holder set plus a heap per machine
   of the sets holding it and the tasks that moved) is an incremental
   evaluation of it. All five policies are driven side by side through
   engine-shaped histories against the stateless scans over the whole
   order: select-then-start, tasks leaving the pool by other means,
   pool re-entries with [notify], and holder growth the way the engine
   does it on a landed re-replication (copy the set, add a machine,
   intern the result, move the task, notify). Holder sets come from a
   pool of up to 100 random sets, each task taking a pool member or a
   physically distinct copy of one, so a run may hold more than 64
   sets, equal sets that are distinct blocks, and growth into an
   existing set or a new one. Estimates are few-valued half the time,
   so random tie-break has ties to draw among, and the order is
   estimate-sorted half the time, so its early stop is taken; locality
   runs on a zoned topology with per-task sizes. *)
let reference_list_priority (v : Dispatch.view) ~machine:i =
  let rec scan pos =
    if pos >= v.Dispatch.n then -1
    else
      let j = v.Dispatch.order.(pos) in
      if v.Dispatch.dispatchable.(j) && Bitset.mem (holders v j) i then j
      else scan (pos + 1)
  in
  scan 0

(* The scans below are the order-walking policies as they stood before
   the set index, scanning from position 0 and reading each task's set
   through the view. *)
let reference_ec_scan (v : Dispatch.view) ~machine:i =
  let rec ec_scan pos best =
    if pos >= v.Dispatch.n then best
    else
      let j = v.Dispatch.order.(pos) in
      let best =
        if
          v.Dispatch.dispatchable.(j)
          && Bitset.mem (holders v j) i
          && (best < 0
             || v.Dispatch.est.(j) /. v.Dispatch.speed.(i)
                < v.Dispatch.est.(best) /. v.Dispatch.speed.(i))
        then j
        else best
      in
      ec_scan (pos + 1) best
  in
  ec_scan 0 (-1)

let reference_loc_scan (v : Dispatch.view) topo ~machine:i =
  let rec loc_better set j k =
    let k = Bitset.next set k in
    k >= 0
    && ((k <> i
        && v.Dispatch.available k
        && v.Dispatch.load.(k)
           +. Topology.staging_time topo ~src:(j mod v.Dispatch.m) ~dst:k
                ~size:v.Dispatch.size.(j)
           < v.Dispatch.load.(i)
             +. Topology.staging_time topo ~src:(j mod v.Dispatch.m) ~dst:i
                  ~size:v.Dispatch.size.(j))
       || loc_better set j (k + 1))
  in
  let rec loc_scan ~fallback pos =
    if pos >= v.Dispatch.n then fallback
    else
      let j = v.Dispatch.order.(pos) in
      let set = holders v j in
      if v.Dispatch.dispatchable.(j) && Bitset.mem set i then
        let fallback = if fallback < 0 then j else fallback in
        if loc_better set j 0 then loc_scan ~fallback (pos + 1) else j
      else loc_scan ~fallback (pos + 1)
  in
  loc_scan ~fallback:(-1) 0

(* The random tie-break scan, drawing from its own generator: fed the
   policy's seed, it draws exactly when the policy does, so the two stay
   in step along a whole history. *)
let reference_random_tiebreak seed (v : Dispatch.view) =
  let rng = Rng.create ~seed () in
  let candidates = Array.make (Stdlib.max 1 v.Dispatch.n) 0 in
  let sorted =
    let ok = ref true in
    for pos = 0 to v.Dispatch.n - 2 do
      if
        not
          (v.Dispatch.est.(v.Dispatch.order.(pos))
          >= v.Dispatch.est.(v.Dispatch.order.(pos + 1)))
      then ok := false
    done;
    !ok
  in
  fun ~machine:i ->
    let rec first pos =
      if pos >= v.Dispatch.n then -1
      else
        let j = v.Dispatch.order.(pos) in
        if v.Dispatch.dispatchable.(j) && Bitset.mem (holders v j) i then pos
        else first (pos + 1)
    in
    let pos0 = first 0 in
    if pos0 < 0 then -1
    else begin
      let j0 = v.Dispatch.order.(pos0) in
      let e0 = v.Dispatch.est.(j0) in
      let count = ref 0 in
      let pos = ref pos0 in
      while
        !pos < v.Dispatch.n
        && not (sorted && v.Dispatch.est.(v.Dispatch.order.(!pos)) < e0)
      do
        let j = v.Dispatch.order.(!pos) in
        if
          v.Dispatch.dispatchable.(j)
          && v.Dispatch.est.(j) = e0
          && Bitset.mem (holders v j) i
        then begin
          candidates.(!count) <- j;
          incr count
        end;
        incr pos
      done;
      if !count <= 1 then j0 else candidates.(Rng.int rng !count)
    end

let growth_scenario =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    QCheck.Gen.(
      let* n = int_range 1 200 in
      let* m = int_range 1 12 in
      let* seed = int_bound 1_000_000 in
      return (n, m, seed))

let prop_indexed_policies_match_reference =
  QCheck.Test.make
    ~name:
      "every policy matches its stateless scan under re-entries and holder \
       growth"
    ~count:300 growth_scenario (fun (n, m, seed) ->
      let rng = Rng.create ~seed () in
      let est =
        if Rng.bernoulli rng ~p:0.5 then
          Array.init n (fun _ -> float_of_int (1 + Rng.int rng 3))
        else Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:9.0)
      in
      let order = Array.init n (fun j -> j) in
      Helpers.shuffle rng order;
      if Rng.bernoulli rng ~p:0.5 then
        Array.stable_sort (fun a b -> compare est.(b) est.(a)) order;
      let pos_of = Array.make n 0 in
      Array.iteri (fun p j -> pos_of.(j) <- p) order;
      let random_set () =
        let s = Bitset.create m in
        for i = 0 to m - 1 do
          if Rng.bernoulli rng ~p:0.4 then Bitset.add s i
        done;
        if Bitset.cardinal s = 0 then Bitset.add s (Rng.int rng m);
        s
      in
      let pool = Array.init (1 + Rng.int rng 100) (fun _ -> random_set ()) in
      let placement =
        Array.init n (fun _ ->
            let s = pool.(Rng.int rng (Array.length pool)) in
            if Rng.bernoulli rng ~p:0.5 then s else Bitset.copy s)
      in
      let sets, group_of, first, members = interned placement ~order in
      let dispatchable = Array.init n (fun _ -> Rng.bernoulli rng ~p:0.8) in
      (* Coin-flip duplicated loads so the strict-inequality ties of the
         deferring policies are hit. *)
      let load =
        Array.init m (fun _ ->
            if Rng.bernoulli rng ~p:0.3 then 5.0
            else Rng.float_range rng ~lo:0.0 ~hi:10.0)
      in
      let avail = Array.init m (fun _ -> Rng.bernoulli rng ~p:0.8) in
      let topo =
        Topology.zoned ~m
          ~zones:(1 + Rng.int rng (Stdlib.min m 4))
          ~bandwidth:(Rng.float_range rng ~lo:0.3 ~hi:3.0)
          ~latency:(Rng.float_range rng ~lo:0.0 ~hi:1.5)
          ()
      in
      let view =
        {
          Dispatch.n;
          m;
          order;
          pos_of;
          dispatchable;
          sets;
          group_of;
          first;
          members;
          est;
          speed = Array.init m (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:2.0);
          load;
          now = [| 0.0 |];
          available = (fun k -> avail.(k));
          topology = Some topo;
          size =
            Array.init n (fun _ ->
                if Rng.bernoulli rng ~p:0.3 then 1.0
                else Rng.float_range rng ~lo:0.1 ~hi:8.0);
        }
      in
      let seed = Rng.int rng 1000 in
      (* The policies share the view's live arrays, so every mutation is
         seen by all of them and by the references alike. *)
      let policies =
        List.map
          (fun spec -> Dispatch.make spec view)
          Dispatch.
            [
              List_priority;
              Least_loaded_holder;
              Earliest_estimated_completion;
              Random_tiebreak seed;
              Locality;
            ]
      in
      let random_reference = reference_random_tiebreak seed view in
      let references =
        [
          reference_list_priority view;
          (fun ~machine ->
            Option.value ~default:(-1) (reference_least_loaded view ~machine));
          reference_ec_scan view;
          random_reference;
          reference_loc_scan view topo;
        ]
      in
      let notify j =
        List.iter (fun t -> Dispatch.notify_available t ~task:j) policies
      in
      let ok = ref true in
      for _ = 1 to 4 * (n + 1) do
        let r = Rng.int rng 10 in
        if r < 5 then begin
          (* An idle machine asks for work; it starts one policy's pick,
             and its load grows. *)
          let i = Rng.int rng m in
          let picks =
            List.map2
              (fun t reference ->
                let a = Dispatch.select_machine t ~machine:i in
                if a <> reference ~machine:i then ok := false;
                a)
              policies references
          in
          let started = List.nth picks (Rng.int rng (List.length picks)) in
          if started >= 0 then begin
            dispatchable.(started) <- false;
            load.(i) <- load.(i) +. view.Dispatch.est.(started)
          end
        end
        else if r < 6 then
          (* A task leaves the pool by other means (stranded, or resumed
             from a checkpoint). *)
          dispatchable.(Rng.int rng n) <- false
        else if r < 8 then begin
          (* A task returns to the pool (a kill, a streaming arrival). *)
          let j = Rng.int rng n in
          if not dispatchable.(j) then begin
            dispatchable.(j) <- true;
            notify j
          end
        end
        else begin
          (* A re-replication lands: the task's set grows by one machine
             and the task moves to the interned result, an existing set
             or a new one. A task in the pool is notified now; one out
             of it is notified when it returns. *)
          let j = Rng.int rng n in
          let dst = Rng.int rng m in
          if not (Bitset.mem (holders view j) dst) then begin
            let grown = Bitset.copy (holders view j) in
            Bitset.add grown dst;
            group_of.(j) <- Set_table.intern sets grown;
            if dispatchable.(j) then notify j
          end
        end;
        if Rng.int rng 8 = 0 then begin
          let k = Rng.int rng m in
          avail.(k) <- not avail.(k)
        end
      done;
      !ok)

(* Reference equivalence for the zero-alloc earliest-completion rewrite:
   the original algorithm, frozen here with its refs and boxed
   [infinity] accumulator, probed against the module's tail-recursive
   scan on random views — including non-unit speeds, since the rule
   divides by the asking machine's speed. *)
let reference_earliest_completion (v : Dispatch.view) ~machine:i =
  let best = ref (-1) and best_cost = ref infinity in
  for pos = 0 to v.Dispatch.n - 1 do
    let j = v.Dispatch.order.(pos) in
    if v.Dispatch.dispatchable.(j) && Bitset.mem (holders v j) i
    then begin
      let cost = v.Dispatch.est.(j) /. v.Dispatch.speed.(i) in
      if cost < !best_cost then begin
        best := j;
        best_cost := cost
      end
    end
  done;
  if !best >= 0 then Some !best else None

let prop_earliest_completion_matches_reference =
  QCheck.Test.make
    ~name:"earliest-completion select matches the pre-rewrite reference"
    ~count:500 view_scenario (fun (n, m, seed) ->
      let rng = Rng.create ~seed () in
      let order = Array.init n (fun j -> j) in
      Helpers.shuffle rng order;
      let pos_of = Array.make n 0 in
      Array.iteri (fun p j -> pos_of.(j) <- p) order;
      let holders =
        Array.init n (fun _ ->
            let s = Bitset.create m in
            for i = 0 to m - 1 do
              if Rng.bernoulli rng ~p:0.6 then Bitset.add s i
            done;
            if Bitset.cardinal s = 0 then Bitset.add s (Rng.int rng m);
            s)
      in
      let dispatchable = Array.init n (fun _ -> Rng.bernoulli rng ~p:0.7) in
      (* Coin-flip duplicated estimates so strict-inequality ties are
         hit — ties must resolve to the priority order in both. *)
      let ests =
        Array.init n (fun _ ->
            if Rng.bernoulli rng ~p:0.3 then 4.0
            else Rng.float_range rng ~lo:0.5 ~hi:9.0)
      in
      let sets, group_of, first, members = interned holders ~order in
      let view =
        {
          Dispatch.n;
          m;
          order;
          pos_of;
          dispatchable;
          sets;
          group_of;
          first;
          members;
          est = ests;
          speed = Array.init m (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:2.0);
          load = Array.make m 0.0;
          now = [| 0.0 |];
          available = (fun _ -> true);
          topology = None;
          size = [||];
        }
      in
      let ec = Dispatch.make Dispatch.Earliest_estimated_completion view in
      Array.for_all
        (fun i ->
          select ec ~machine:i
          = reference_earliest_completion view ~machine:i)
        (Array.init m (fun i -> i)))

(* Locality without a topology is least-loaded by definition — pinned
   through the engine so spec naming, policy state, and the hot loop all
   agree. *)
let prop_locality_defaults_to_least_loaded =
  QCheck.Test.make ~name:"locality = least-loaded without a topology"
    ~count:200 scenario (fun s ->
      let instance, realization, placement, order, _ = build s in
      let a =
        Engine.run ~dispatch:Dispatch.Least_loaded_holder instance realization
          ~placement:(Helpers.holders placement) ~order
      in
      let b =
        Engine.run ~dispatch:Dispatch.Locality instance realization
          ~placement:(Helpers.holders placement)
          ~order
      in
      Array.for_all2 entries_equal (entries a) (entries b))

(* With a topology, locality inflates each candidate holder's load by
   the staging it would pay from the task's home machine. Mirror of
   [least_loaded_defers]: m0 (load 3) would defer t0 to the idle m1,
   but m1 sits across a 0.1-bandwidth link from t0's home (machine 0),
   so its effective cost is 0 + 1/0.1 = 10 > 3 and m0 keeps t0. *)
let locality_prices_staging () =
  let topo =
    Topology.make ~zone_of:[| 0; 1 |]
      ~bandwidth:[| [| infinity; 0.1 |]; [| 0.1; infinity |] |]
      ~latency:[| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |]
  in
  let mk topology size =
    let sets, group_of, first, members =
      interned
        [| Bitset.of_list 2 [ 0; 1 ]; Bitset.of_list 2 [ 0 ] |]
        ~order:[| 0; 1 |]
    in
    {
      Dispatch.n = 2;
      m = 2;
      order = [| 0; 1 |];
      pos_of = [| 0; 1 |];
      dispatchable = [| true; true |];
      sets;
      group_of;
      first;
      members;
      est = [| 3.0; 5.0 |];
      speed = [| 1.0; 1.0 |];
      load = [| 3.0; 0.0 |];
      now = [| 0.0 |];
      available = (fun _ -> true);
      topology;
      size;
    }
  in
  let plain = Dispatch.make Dispatch.Locality (mk None [||]) in
  Alcotest.(check (option int))
    "without a topology, locality defers like least-loaded" (Some 1)
    (select plain ~machine:0);
  let priced =
    Dispatch.make Dispatch.Locality (mk (Some topo) [| 1.0; 1.0 |])
  in
  Alcotest.(check (option int))
    "cross-zone staging outweighs the idle holder: m0 keeps t0" (Some 0)
    (select priced ~machine:0);
  (* The idle cross-zone machine still takes its best option when asked:
     work conservation is untouched by the pricing. *)
  Alcotest.(check (option int))
    "m1 keeps serving what it holds" (Some 0)
    (select priced ~machine:1)

(* Every policy must refuse work the machine has no data for, and the
   faulty engine must respect availability under every policy. *)
let policies_respect_eligibility () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 1.0) [| 2.0; 3.0; 4.0 |]
  in
  let realization = Realization.exact instance in
  let placement =
    [| Bitset.singleton 3 0; Bitset.singleton 3 1; Bitset.singleton 3 2 |]
  in
  List.iter
    (fun dispatch ->
      let schedule =
        Engine.run ~dispatch instance realization ~placement:(Helpers.holders placement)
          ~order:(submission_order 3)
      in
      Array.iteri
        (fun j e ->
          checki
            (Printf.sprintf "%s: task %d on its only holder"
               (Dispatch.name dispatch) j)
            j e.Schedule.machine)
        (entries schedule))
    Dispatch.builtin

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "dispatch"
    [
      ( "spec",
        [
          Alcotest.test_case "names and parsing" `Quick spec_names;
          Alcotest.test_case "advertised names parse" `Quick known_names_parse;
        ] );
      ( "golden",
        [
          QCheck_alcotest.to_alcotest prop_default_policy_is_golden;
          QCheck_alcotest.to_alcotest prop_default_policy_is_golden_healthy;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_policies_work_conserving;
          QCheck_alcotest.to_alcotest prop_policy_reachability;
          QCheck_alcotest.to_alcotest prop_least_loaded_matches_reference;
          QCheck_alcotest.to_alcotest prop_indexed_policies_match_reference;
          QCheck_alcotest.to_alcotest prop_earliest_completion_matches_reference;
          QCheck_alcotest.to_alcotest prop_locality_defaults_to_least_loaded;
        ] );
      ( "redispatch",
        [
          Alcotest.test_case "freed machines re-dispatch in id order" `Quick
            redispatch_order_pinned;
        ] );
      ( "policies",
        [
          Alcotest.test_case "least-loaded defers to idle holder" `Quick
            least_loaded_defers;
          Alcotest.test_case "earliest-completion is restricted SPT" `Quick
            earliest_completion_is_spt;
          Alcotest.test_case "random tie-break: seeded, tie-only" `Quick
            random_tiebreak_behavior;
          Alcotest.test_case "locality prices cross-zone staging" `Quick
            locality_prices_staging;
          Alcotest.test_case "singleton placements pin every policy" `Quick
            policies_respect_eligibility;
        ] );
    ]
