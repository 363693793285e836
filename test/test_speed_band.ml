(* Speed bands, the adversarial speed revelator, and the speed-robust
   placement family: constructor validation, wire-format round trips,
   in-band sampling, adversary contracts, and THE golden pin — a
   degenerate band (lo = hi = 1) must reduce bit-for-bit to the existing
   engine across dispatch policies and fault traces. *)

module Speed_band = Usched_model.Speed_band
module Bitset = Usched_model.Bitset
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Engine = Usched_desim.Engine
module Dispatch = Usched_desim.Dispatch
module Schedule = Usched_desim.Schedule
module Fault = Usched_faults.Fault
module Trace = Usched_faults.Trace
module Core = Usched_core
module Rng = Usched_prng.Rng
module Metrics = Usched_obs.Metrics
module Json = Usched_report.Json

let checkb = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

(* ------------------------- constructors ---------------------------- *)

let rejects_bad_bands () =
  List.iter
    (fun (name, bands) ->
      checkb name true
        (try
           ignore (Speed_band.make bands);
           false
         with Invalid_argument _ -> true))
    [
      ("empty", [||]);
      ("nan lo", [| (Float.nan, 1.0) |]);
      ("nan hi", [| (1.0, Float.nan) |]);
      ("zero lo", [| (0.0, 1.0) |]);
      ("negative lo", [| (-1.0, 1.0) |]);
      ("infinite hi", [| (1.0, Float.infinity) |]);
      ("inverted", [| (2.0, 1.0) |]);
    ];
  checkb "widen needs spread >= 1" true
    (try
       ignore (Speed_band.widen (Speed_band.nominal ~m:2) ~spread:0.5);
       false
     with Invalid_argument _ -> true)

let bound_arrays () =
  let band = Speed_band.make [| (0.5, 1.5); (2.0, 2.0); (1.0, 4.0) |] in
  let farr = Alcotest.(array (float 0.0)) in
  Alcotest.check farr "los" [| 0.5; 2.0; 1.0 |] (Speed_band.los band);
  Alcotest.check farr "his" [| 1.5; 2.0; 4.0 |] (Speed_band.his band);
  Alcotest.check farr "mids" [| 1.0; 2.0; 2.5 |] (Speed_band.mids band);
  checkb "every corner array lies in the band" true
    (List.for_all (Speed_band.contains band)
       [ Speed_band.los band; Speed_band.his band; Speed_band.mids band ]);
  (* The arrays are fresh: writing into one leaves the band alone. *)
  let his = Speed_band.his band in
  his.(0) <- 99.0;
  close "band unchanged by a caller's write" 1.5 (Speed_band.hi band 0);
  close "next read unchanged" 1.5 (Speed_band.his band).(0)

let tiered_matches_hetero_array () =
  let t = Speed_band.tiered ~m:8 in
  checkb "degenerate" true (Speed_band.is_degenerate t);
  Alcotest.(check (array (float 0.0)))
    "the hetero experiment's historical speeds"
    [| 2.0; 2.0; 1.0; 1.0; 1.0; 1.0; 0.5; 0.5 |]
    (Speed_band.los t);
  let w = Speed_band.widen t ~spread:2.0 in
  close "lo divided" 1.0 (Speed_band.lo w 0);
  close "hi multiplied" 4.0 (Speed_band.hi w 0);
  checkb "widened is uncertain" true (not (Speed_band.is_degenerate w))

let of_spec_grammar () =
  (match Speed_band.of_spec ~m:3 "uniform:0.5:2" with
  | Ok b ->
      checkb "uniform band" true
        (Helpers.band_equal b (Speed_band.uniform ~m:3 ~lo:0.5 ~hi:2.0))
  | Error e -> Alcotest.failf "uniform spec rejected: %s" e);
  (match Speed_band.of_spec ~m:3 "1,0.5:2,3" with
  | Ok b ->
      checkb "list band" true
        (Helpers.band_equal b
           (Speed_band.make [| (1.0, 1.0); (0.5, 2.0); (3.0, 3.0) |]))
  | Error e -> Alcotest.failf "list spec rejected: %s" e);
  List.iter
    (fun spec ->
      match Speed_band.of_spec ~m:3 spec with
      | Ok _ -> Alcotest.failf "accepted %S" spec
      | Error msg ->
          checkb
            (Printf.sprintf "%S error carries the grammar" spec)
            true
            (let sub = "uniform:LO:HI" in
             let rec contains i =
               i + String.length sub <= String.length msg
               && (String.sub msg i (String.length sub) = sub
                  || contains (i + 1))
             in
             contains 0))
    [ "bogus"; "uniform:2:0.5"; "1,2"; "1,2,3,4"; "0:1,1,1"; "a,b,c" ]

let sample_degenerate_is_exact () =
  let speeds = [| 2.0; 2.0; 1.0; 0.5 |] in
  let band = Speed_band.make (Array.map (fun s -> (s, s)) speeds) in
  let rng = Rng.create ~seed:7 () in
  for _ = 1 to 20 do
    Alcotest.(check (array (float 0.0)))
      "degenerate sample is the bound itself" speeds
      (Speed_band.sample band rng)
  done

let sample_draws_pair_across_bands () =
  (* One unconditional variate per machine, so two bands of the same m
     consume the stream identically — a degenerate machine in one band
     does not shift later machines' draws. *)
  let b1 = Speed_band.make [| (1.0, 1.0); (0.5, 2.0) |] in
  let b2 = Speed_band.make [| (0.25, 4.0); (0.5, 2.0) |] in
  let s1 = Speed_band.sample b1 (Rng.create ~seed:5 ()) in
  let s2 = Speed_band.sample b2 (Rng.create ~seed:5 ()) in
  close "machine 1 draw paired" s1.(1) s2.(1)

(* --------------------------- properties ---------------------------- *)

let band_gen =
  QCheck.Gen.(
    let* m = int_range 1 8 in
    let* bounds =
      array_size (return m)
        (let* lo = float_range 0.01 5.0 in
         let* spread = float_range 1.0 3.0 in
         let* degenerate = bool in
         return (lo, if degenerate then lo else lo *. spread))
    in
    return (Speed_band.make bounds))

let band_arb =
  QCheck.make ~print:(fun b -> Speed_band.to_string b) band_gen

let prop_round_trip =
  QCheck.Test.make ~count:300 ~name:"speed bands round trip bit-exactly"
    band_arb (fun band ->
      match Speed_band.of_spec ~m:(Speed_band.m band) (Speed_band.to_string band) with
      | Ok back -> Helpers.band_equal back band
      | Error _ -> false)

let prop_sample_in_band =
  QCheck.Test.make ~count:300 ~name:"revealed speeds never leave their bands"
    QCheck.(pair band_arb small_nat)
    (fun (band, seed) ->
      let rng = Rng.create ~seed () in
      let speeds = Speed_band.sample band rng in
      Speed_band.contains band speeds)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* seed = int_bound 1_000_000 in
    return (n, m, k, seed))

let scenario_print (n, m, k, seed) =
  Printf.sprintf "n=%d m=%d k=%d seed=%d" n m k seed

let scenario = QCheck.make ~print:scenario_print scenario_gen

let build_instance (n, m, seed) =
  let rng = Rng.create ~seed () in
  let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
  let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
  (instance, Realization.uniform_factor instance rng, rng)

let prop_adversary_dominates_mc =
  (* Folding the Monte-Carlo draws into the candidate set makes the
     adversarial makespan an upper bound on every sampled one — the
     contract the experiment and the CLI summary both print. *)
  QCheck.Test.make ~count:150
    ~name:"adversarial makespan dominates every Monte-Carlo draw" scenario
    (fun (n, m, k, seed) ->
      let instance, realization, rng = build_instance (n, m, seed) in
      let band = Speed_band.uniform ~m ~lo:0.5 ~hi:2.0 in
      let instance = Instance.with_speed_band instance (Some band) in
      let placement = Core.Speed_robust.placement ~k instance in
      let sets = Core.Placement.sets placement in
      let order = Instance.lpt_order instance in
      let makespan speeds =
        Schedule.makespan
          (Engine.run ~speeds instance realization ~placement:sets ~order)
      in
      let draws =
        Array.init 10 (fun _ -> Speed_band.sample band (Rng.split rng))
      in
      let _, adv =
        Core.Speed_adversary.worst_case ~run:makespan
          ~candidates:(Array.to_list draws) instance placement band
      in
      Array.for_all (fun d -> makespan d <= adv) draws)

(* The busy-time bound the corner search prunes with. A random scenario:
   random overlapping replica sets (a few shared ones, or one drawn per
   task), a band whose machines are sometimes degenerate, an arbitrary
   priority order, and on two of three seeds a priced multi-zone
   topology with data sizes, so replays pay staging. *)
let bound_scenario_gen =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* m = int_range 1 6 in
    let* seed = int_bound 1_000_000 in
    return (n, m, seed))

let bound_scenario =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    bound_scenario_gen

let build_bounded (n, m, seed) =
  let instance, realization, rng = build_instance (n, m, seed) in
  let instance =
    if seed mod 3 = 0 || m = 1 then instance
    else Helpers.with_priced_zones rng ~zones:(2 + (seed mod (m - 1))) instance
  in
  let random_set () =
    let set = Bitset.create m in
    for i = 0 to m - 1 do
      if Rng.float rng < 0.4 then Bitset.add set i
    done;
    if Bitset.is_empty set then Bitset.add set (Rng.int rng m);
    set
  in
  let shared = Array.init (1 + Rng.int rng 3) (fun _ -> random_set ()) in
  let sets =
    Array.init n (fun _ ->
        if seed mod 2 = 0 then shared.(Rng.int rng (Array.length shared))
        else random_set ())
  in
  let band =
    Speed_band.make
      (Array.init m (fun _ ->
           let lo = Rng.float_range rng ~lo:0.3 ~hi:2.0 in
           if Rng.float rng < 0.3 then (lo, lo)
           else (lo, lo +. Rng.float_range rng ~lo:0.0 ~hi:2.0)))
  in
  let order = Array.init n Fun.id in
  Helpers.shuffle rng order;
  (instance, realization, Core.Placement.of_sets ~m sets, band, order)

let corners band =
  let m = Speed_band.m band in
  List.init (1 lsl m) (fun mask ->
      Array.init m (fun i ->
          if mask land (1 lsl i) <> 0 then Speed_band.lo band i
          else Speed_band.hi band i))

let prop_makespan_bound =
  QCheck.Test.make ~count:300
    ~name:"makespan_bound >= the replay's makespan at every corner, every policy"
    bound_scenario (fun s ->
      let instance, realization, placement, band, order = build_bounded s in
      let bound =
        Core.Speed_adversary.makespan_bound instance
          ~actuals:(Realization.actuals realization)
          placement
      in
      let sets = Core.Placement.sets placement in
      List.for_all
        (fun speeds ->
          let b = bound speeds in
          List.for_all
            (fun dispatch ->
              Schedule.makespan
                (Engine.run ~speeds ~dispatch instance realization
                   ~placement:sets ~order)
              <= b)
            Dispatch.builtin)
        (corners band))

(* Pruning is exact: with the bound, the search reports the corner and
   value full enumeration reports, bit for bit — also on identical
   machines, where symmetric corners tie. *)
let prop_bounded_search_exact =
  QCheck.Test.make ~count:200
    ~name:"exhaustive ~bound = exhaustive, ties included" bound_scenario
    (fun ((_, m, seed) as s) ->
      let instance, realization, placement, band, order = build_bounded s in
      let band =
        if seed mod 4 = 0 then Speed_band.uniform ~m ~lo:0.5 ~hi:2.0 else band
      in
      let actuals = Realization.actuals realization in
      let sets = Core.Placement.sets placement in
      let dispatch = List.nth Dispatch.builtin (seed mod 5) in
      let ratio speeds =
        Schedule.makespan
          (Engine.run ~speeds ~dispatch instance realization ~placement:sets
             ~order)
        /. Core.Uniform.lower_bound ~speeds actuals
      in
      let makespan_bound =
        Core.Speed_adversary.makespan_bound instance ~actuals placement
      in
      let bound speeds =
        makespan_bound speeds /. Core.Uniform.lower_bound ~speeds actuals
      in
      Core.Speed_adversary.exhaustive ~bound ~run:ratio band
      = Core.Speed_adversary.exhaustive ~run:ratio band)

let bound_prunes_group_placements () =
  (* Speed-robust placements share a handful of replica sets, the case
     the bound is built for: far fewer corners are replayed, and the
     answer is full enumeration's. *)
  let instance, realization, _ = build_instance (300, 10, 11) in
  let band = Speed_band.uniform ~m:10 ~lo:0.5 ~hi:2.0 in
  let instance = Instance.with_speed_band instance (Some band) in
  let placement = Core.Speed_robust.placement ~k:2 instance in
  let actuals = Realization.actuals realization in
  let sets = Core.Placement.sets placement in
  let order = Instance.lpt_order instance in
  let calls = ref 0 in
  let ratio speeds =
    incr calls;
    Schedule.makespan
      (Engine.run ~speeds instance realization ~placement:sets ~order)
    /. Core.Uniform.lower_bound ~speeds actuals
  in
  let makespan_bound =
    Core.Speed_adversary.makespan_bound instance ~actuals placement
  in
  let bound speeds =
    makespan_bound speeds /. Core.Uniform.lower_bound ~speeds actuals
  in
  let pruned = Core.Speed_adversary.exhaustive ~bound ~run:ratio band in
  let replayed = !calls in
  checkb
    (Printf.sprintf "%d of 1024 corners replayed" replayed)
    true (replayed <= 64);
  checkb "same corner and ratio" true
    (pruned = Core.Speed_adversary.exhaustive ~run:ratio band)

let bounded_search_replays_tight_ties () =
  (* The value counts the machines at [lo], capped at 2, so corners 3, 5,
     6 and 7 (bit i set: machine i slow) tie at the maximum. The bound
     is exact except where machine 0 is fast, so corner 6 is replayed
     first; full enumeration reports corner 3, whose bound equals the
     maximum, and the search must still replay it. *)
  let band = Speed_band.uniform ~m:3 ~lo:0.5 ~hi:2.0 in
  let run s =
    float_of_int
      (Stdlib.min 2 (Array.fold_left (fun acc x -> if x = 0.5 then acc + 1 else acc) 0 s))
  in
  let bound s = run s +. if s.(0) = 2.0 then 1.0 else 0.0 in
  let full = Core.Speed_adversary.exhaustive ~run band in
  checkb "full enumeration reports corner 3" true (full = ([| 0.5; 0.5; 2.0 |], 2.0));
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "bounded search on %d domain(s)" domains)
        true
        (Core.Speed_adversary.exhaustive ~domains ~bound ~run band = full))
    [ 1; 2 ]

let makespan_bound_rejects_mismatches () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 1.0; 2.0 |]
  in
  let placement = Core.Placement.full ~m:2 ~n:2 in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  checkb "actuals of another length" true
    (raises (fun () ->
         Core.Speed_adversary.makespan_bound instance ~actuals:[| 1.0 |]
           placement));
  let bound =
    Core.Speed_adversary.makespan_bound instance ~actuals:[| 1.0; 2.0 |]
      placement
  in
  checkb "speeds of another length" true (raises (fun () -> bound [| 1.0 |]));
  (* Both machines run at speed 1 and see 3 units of work: the bound is
     3/2 + 2/1, inflated by the relative slack. *)
  Alcotest.(check (float 0.0)) "value" (3.5 *. (1.0 +. 1e-9)) (bound [| 1.0; 1.0 |])

let prop_one_replica_per_class =
  QCheck.Test.make ~count:200
    ~name:"speed-robust placement holds one replica per speed class" scenario
    (fun (n, m, k, seed) ->
      let instance, _, _ = build_instance (n, m, seed) in
      let band =
        Speed_band.make
          (Array.init m (fun i -> (1.0 /. float_of_int (i + 1), 2.0)))
      in
      let instance = Instance.with_speed_band instance (Some band) in
      let classes = Core.Speed_robust.classes ~k instance in
      let placement = Core.Speed_robust.placement ~k instance in
      (* The classes partition the machines... *)
      Array.length classes = k
      && Array.fold_left (fun acc c -> acc + Array.length c) 0 classes = m
      && (* ...and every task holds exactly one replica in each. *)
      Array.for_all
        (fun j ->
          Core.Placement.replication placement j = k
          && Array.for_all
               (fun group ->
                 Array.exists
                   (fun i ->
                     Core.Placement.allowed placement ~task:j ~machine:i)
                   group)
               classes)
        (Array.init n (fun j -> j)))

(* ----------------------- THE golden pin ---------------------------- *)

let entries_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.machine = b.Schedule.machine
  && a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish

(* Speed-robust placements intern their replica sets: tasks with the
   same per-class machine choice share one physical set, which is what
   lets list-priority dispatch bucket them. Sharing must not change a
   single engine decision: the copied sets (one physical set per task,
   so more than 64 of them — the plain per-machine-cursor path) must
   replay bit for bit the same schedule. *)
let sharing_gen =
  QCheck.Gen.(
    let* n = int_range 65 200 in
    let* m = int_range 1 10 in
    let* k = int_range 1 m in
    let* seed = int_bound 1_000_000 in
    let* other = int_range 1 (List.length Dispatch.builtin - 1) in
    return (n, m, k, seed, other))

let sharing_print (n, m, k, seed, other) =
  Printf.sprintf "n=%d m=%d k=%d seed=%d other=%s" n m k seed
    (Dispatch.name (List.nth Dispatch.builtin other))

let random_band rng m =
  Speed_band.make
    (Array.init m (fun _ ->
         let lo = Rng.float_range rng ~lo:0.2 ~hi:1.5 in
         (lo, lo +. Rng.float_range rng ~lo:0.0 ~hi:2.0)))

let physically_distinct sets =
  Array.fold_left
    (fun acc set -> if List.exists (fun s -> s == set) acc then acc else set :: acc)
    [] sets

let prop_speed_robust_sets_shared =
  QCheck.Test.make ~count:150
    ~name:"speed-robust placement shares one set per distinct replica set"
    (QCheck.make ~print:sharing_print sharing_gen)
    (fun (n, m, k, seed, _) ->
      let instance, _, rng = build_instance (n, m, seed) in
      let instance = Instance.with_speed_band instance (Some (random_band rng m)) in
      let placement = Core.Speed_robust.placement ~k instance in
      let distinct =
        physically_distinct (Helpers.task_sets (Core.Placement.sets placement))
      in
      let product =
        Array.fold_left
          (fun acc c -> acc * Array.length c)
          1
          (Core.Speed_robust.classes ~k instance)
      in
      let contents = List.map Helpers.elements distinct in
      List.length distinct <= product
      && List.length (List.sort_uniq compare contents) = List.length contents)

let prop_shared_sets_replay_as_copies =
  QCheck.Test.make ~count:150
    ~name:"shared speed-robust sets replay as private copies bit for bit"
    (QCheck.make ~print:sharing_print sharing_gen)
    (fun (n, m, k, seed, other) ->
      let instance, realization, rng = build_instance (n, m, seed) in
      let band = random_band rng m in
      let instance = Instance.with_speed_band instance (Some band) in
      let shared = Core.Placement.sets (Core.Speed_robust.placement ~k instance) in
      let copies = Helpers.holders (Array.map Bitset.copy (Helpers.task_sets shared)) in
      let speeds = Speed_band.sample band (Rng.split rng) in
      let order = Instance.lpt_order instance in
      List.for_all
        (fun dispatch ->
          let run placement =
            Engine.run ~speeds ~dispatch instance realization ~placement ~order
          in
          let a = run shared and b = run copies in
          Array.for_all
            (fun j -> entries_equal (Schedule.entry a j) (Schedule.entry b j))
            (Array.init n (fun j -> j)))
        [ Dispatch.List_priority; List.nth Dispatch.builtin other ])

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

let golden_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 1 5 in
    let* k = int_range 1 m in
    let* p = float_range 0.0 0.5 in
    let* seed = int_bound 1_000_000 in
    let* policy = int_bound (List.length Dispatch.builtin - 1) in
    return (n, m, k, p, seed, policy))

let golden_print (n, m, k, p, seed, policy) =
  Printf.sprintf "n=%d m=%d k=%d p=%.3f seed=%d policy=%s" n m k p seed
    (Dispatch.name (List.nth Dispatch.builtin policy))

let prop_degenerate_band_golden =
  (* lo = hi = 1 on every machine: sampling the band yields exactly the
     default speeds and the revelation trace is empty, so the composed
     speed-uncertain path must replay the plain faulty engine
     bit-for-bit — fates, makespan, wasted work, and metrics — under
     every dispatch policy and a full crash/outage/slowdown trace. *)
  QCheck.Test.make ~count:320
    ~name:"degenerate band replays the plain engine bit-for-bit"
    (QCheck.make ~print:golden_print golden_gen)
    (fun (n, m, k, p, seed, policy) ->
      let dispatch = List.nth Dispatch.builtin policy in
      let rng = Rng.create ~seed () in
      let ests = Array.init n (fun _ -> Rng.float_range rng ~lo:0.5 ~hi:10.0) in
      let instance = Instance.of_ests ~m ~alpha:(Uncertainty.alpha 2.0) ests in
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
      let band = Speed_band.nominal ~m in
      let speeds = Speed_band.sample band (Rng.split rng) in
      let revelation =
        Trace.revelation ~m ~at:(0.5 *. horizon) speeds
      in
      let banded =
        Engine.run_faulty ~speeds ~dispatch instance realization
          ~faults:(Helpers.merge_traces faults revelation)
            ~placement:(Helpers.holders placement) ~order
      in
      let plain =
        Engine.run_faulty ~dispatch instance realization ~faults
          ~placement:(Helpers.holders placement)
          ~order
      in
      outcomes_identical banded plain)

(* ------------------------ adversary units -------------------------- *)

let exhaustive_finds_the_corner () =
  (* Two machines, one task pinned to machine 0: the worst corner is
     machine 0 slow, and exhaustive search must find exactly it. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0 |]
  in
  let realization = Realization.exact instance in
  let band = Speed_band.uniform ~m:2 ~lo:0.5 ~hi:2.0 in
  let placement = [| Bitset.singleton 2 0 |] in
  let run speeds =
    Schedule.makespan
      (Engine.run ~speeds instance realization
        ~placement:(Helpers.holders placement) ~order:[| 0 |])
  in
  let speeds, worst = Core.Speed_adversary.exhaustive ~run band in
  close "machine 0 slowed" 0.5 speeds.(0);
  close "worst makespan" 8.0 worst;
  checkb "too many machines rejected" true
    (try
       ignore
         (Core.Speed_adversary.exhaustive ~run
            (Speed_band.uniform ~m:17 ~lo:0.5 ~hi:2.0));
       false
     with Invalid_argument _ -> true)

let worst_case_rejects_out_of_band_candidates () =
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 1.0 |]
  in
  let band = Speed_band.uniform ~m:2 ~lo:0.5 ~hi:2.0 in
  let instance' = Instance.with_speed_band instance (Some band) in
  let placement = Core.Speed_robust.placement ~k:1 instance' in
  checkb "candidate outside the band" true
    (try
       ignore
         (Core.Speed_adversary.worst_case
            ~candidates:[ [| 3.0; 1.0 |] ]
            ~run:(fun _ -> 1.0)
            instance' placement band);
       false
     with Invalid_argument _ -> true)

let critical_load_counts_shares () =
  (* Two tasks: t0 (est 4) replicated on both machines, t1 (est 2)
     pinned on machine 0. Machine 0 carries 4/2 + 2, machine 1 4/2. *)
  let instance =
    Instance.of_ests ~m:2 ~alpha:(Uncertainty.alpha 1.0) [| 4.0; 2.0 |]
  in
  let placement =
    Core.Placement.of_sets ~m:2 [| Bitset.full 2; Bitset.singleton 2 0 |]
  in
  let load = Core.Speed_adversary.critical_load instance placement in
  close "machine 0" 4.0 load.(0);
  close "machine 1" 2.0 load.(1)

let () =
  Alcotest.run "speed_band"
    [
      ( "bands",
        [
          Alcotest.test_case "constructor rejections" `Quick rejects_bad_bands;
          Alcotest.test_case "bound arrays" `Quick bound_arrays;
          Alcotest.test_case "tiered matches hetero" `Quick
            tiered_matches_hetero_array;
          Alcotest.test_case "of_spec grammar" `Quick of_spec_grammar;
          Alcotest.test_case "degenerate sampling" `Quick
            sample_degenerate_is_exact;
          Alcotest.test_case "paired draws" `Quick sample_draws_pair_across_bands;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "exhaustive corner" `Quick
            exhaustive_finds_the_corner;
          Alcotest.test_case "out-of-band candidates" `Quick
            worst_case_rejects_out_of_band_candidates;
          Alcotest.test_case "critical load" `Quick critical_load_counts_shares;
          Alcotest.test_case "bound prunes group placements" `Quick
            bound_prunes_group_placements;
          Alcotest.test_case "tight ties replayed" `Quick
            bounded_search_replays_tight_ties;
          Alcotest.test_case "makespan bound arguments" `Quick
            makespan_bound_rejects_mismatches;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_round_trip;
            prop_sample_in_band;
            prop_adversary_dominates_mc;
            prop_makespan_bound;
            prop_bounded_search_exact;
            prop_one_replica_per_class;
            prop_speed_robust_sets_shared;
            prop_shared_sets_replay_as_copies;
          ] );
      ( "golden",
        List.map QCheck_alcotest.to_alcotest [ prop_degenerate_band_golden ] );
    ]
