(* Tests for the strategy catalog: spec validation, the to_string /
   of_string round-trip grammar, the registry, and the catalog golden
   that pins every family's name, placement and schedule. *)

module Core = Usched_core
module Strategy = Usched_core.Strategy
module Instance = Usched_model.Instance
module Realization = Usched_model.Realization
module Uncertainty = Usched_model.Uncertainty
module Schedule = Usched_desim.Schedule
module Bitset = Usched_model.Bitset
module Topology = Usched_model.Topology
module Speed_band = Usched_model.Speed_band
module Rng = Usched_prng.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------- spec generator -------------------------- *)

(* Valid specs only; m-dependent parameters stay in range for the given
   machine and task counts so [build] and phase 1 always succeed.
   [Memory_budget] gets budget >= n so every unit-size workload fits. *)
let spec_gen ~n ~m =
  QCheck.Gen.(
    let speeds k =
      array_size (return m)
        (map (fun i -> [| 0.5; 1.0; 2.0; 4.0 |].(i)) (int_bound 3))
      |> map (fun speeds -> Strategy.Uniform { variant = k; speeds })
    in
    let order = map (fun b -> if b then Strategy.Lpt else Strategy.Ls) bool in
    let pos_k = int_range 1 m in
    let delta = float_range 0.1 4.0 in
    oneof
      [
        map (fun o -> Strategy.No_replication o) order;
        map (fun o -> Strategy.Full_replication o) order;
        (let* o = order in
         let* k = pos_k in
         return (Strategy.Group { order = o; k }));
        map (fun k -> Strategy.Budgeted k) pos_k;
        map (fun f -> Strategy.Proportional f) (float_range 0.0 1.0);
        map (fun c -> Strategy.Selective c) (int_range 0 (n + 2));
        map (fun d -> Strategy.Sabo d) delta;
        map (fun d -> Strategy.Abo d) delta;
        map
          (fun b -> Strategy.Memory_budget (float_of_int n +. b))
          (float_range 0.0 20.0);
        (* Targets stay below what the default p=0.05 profile can reach
           even on one machine (loss 0.05^m per task, n tasks), so the
           solver's phase 1 always succeeds; a budget of >= n unit sizes
           never binds but exercises the constrained code path. *)
        (let tmax =
           1.0 -. (float_of_int n *. (0.05 ** float_of_int m))
         in
         let* target = float_range (0.05 *. tmax) (0.9 *. tmax) in
         let* budget =
           oneof
             [
               return None;
               map (fun b -> Some (float_of_int n +. b)) (float_range 0.0 20.0);
             ]
         in
         return (Strategy.Reliability { target; budget }));
        speeds Strategy.U_no_choice;
        speeds Strategy.U_no_restriction;
        (let* k = pos_k in
         speeds (Strategy.U_group k));
        map (fun k -> Strategy.Speed_robust { k }) pos_k;
        map (fun k -> Strategy.Zone_group k) pos_k;
        map (fun b -> Strategy.Local_budget b) (float_range 0.0 4.0);
      ])

(* -------------------------- round trip ----------------------------- *)

let round_trip =
  QCheck.Test.make ~count:400 ~name:"of_string (to_string s) = Ok s"
    (QCheck.make
       ~print:(fun s -> Strategy.to_string s)
       QCheck.Gen.(
         let* n = int_range 1 16 in
         let* m = int_range 1 8 in
         spec_gen ~n ~m))
    (fun spec ->
      match Strategy.of_string (Strategy.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error _ -> false)

(* Floats that need the %.17g fallback must still round-trip. *)
let awkward_float_round_trip () =
  List.iter
    (fun delta ->
      let spec = Strategy.Sabo delta in
      match Strategy.of_string (Strategy.to_string spec) with
      | Ok spec' -> checkb "exact float round-trip" true (spec' = spec)
      | Error msg -> Alcotest.failf "rejected own printout: %s" msg)
    [ 0.1; 1.0 /. 3.0; 0x1.fffffffffffffp-2; epsilon_float; 1e300 ]

let negative_cases () =
  List.iter
    (fun input ->
      match Strategy.of_string input with
      | Ok spec ->
          Alcotest.failf "%S accepted as %s" input (Strategy.to_string spec)
      | Error msg -> checkb (input ^ " rejected with message") true (msg <> ""))
    [
      "";
      "bogus";
      "help";
      "ls-group";
      "ls-group:";
      "ls-group:x";
      "ls-group:0";
      "ls-group:-2";
      "ls-group:2:junk";
      "group";
      "group:0";
      "lpt-no-choice:3";
      "budgeted:0";
      "budgeted:1.5";
      "selective:x";
      "selective:-1";
      "proportional:1.5";
      "proportional:nan";
      "sabo:nan";
      "sabo:-1";
      "sabo:0";
      "sabo:inf";
      "abo:nan";
      "memory:-2";
      "memory:0";
      "memory";
      "uniform-lpt-no-choice:";
      "uniform-lpt-no-choice:0,1";
      "uniform-lpt-no-choice:1,nan";
      "uniform-ls-group:2";
      "uniform-ls-group:0:1,1";
      "uniform-ls-group:2:1,junk";
      "reliability";
      "reliability:";
      "reliability:nan";
      "reliability:2.0";
      "reliability:1";
      "reliability:0";
      "reliability:-0.5";
      "reliability:x";
      "reliability:0.9:budget";
      "reliability:0.9:budget:";
      "reliability:0.9:budget:nan";
      "reliability:0.9:budget:-1";
      "reliability:0.9:budget:inf";
      "reliability:0.9:x:1";
      "reliability:0.9:budget:2:extra";
    ]

(* Malformed reliability specs must come back with the family's own
   usage line (the TARGET[:budget:B] grammar), not just a generic
   parse error. *)
let reliability_errors_show_grammar () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Strategy.of_string "reliability:0.9:x:1" with
  | Ok _ -> Alcotest.fail "reliability:0.9:x:1 accepted"
  | Error msg ->
      checkb "shape error shows TARGET[:budget:B]" true
        (contains msg "TARGET[:budget:B]"));
  (match Strategy.of_string "reliability:2.0" with
  | Ok _ -> Alcotest.fail "reliability:2.0 accepted"
  | Error msg ->
      checkb "range error names the (0, 1) domain" true
        (contains msg "(0, 1)"));
  match Strategy.of_string "reliability:nan" with
  | Ok _ -> Alcotest.fail "reliability:nan accepted"
  | Error msg ->
      checkb "NaN rejected as not a number" true
        (contains msg "\"nan\" is not a number")

let unknown_name_lists_grammar () =
  match Strategy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      checkb "error carries the grammar" true
        (let contains hay needle =
           let lh = String.length hay and ln = String.length needle in
           let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
           go 0
         in
         contains msg "ls-group:K" && contains msg "sabo:DELTA")

let unknown_name_suggests () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (match Strategy.of_string "relibility:0.99" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error msg ->
      checkb "close misspelling gets a hint" true
        (contains msg "did you mean reliability?"));
  (match Strategy.of_string "lpt-no-choise" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error msg ->
      checkb "hint names the nearest keyword" true
        (contains msg "did you mean lpt-no-choice?"));
  match Strategy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      checkb "far-off names get no hint" false (contains msg "did you mean")

let group_alias () =
  checkb "group:4 is ls-group:4" true
    (Strategy.of_string "group:4"
    = Ok (Strategy.Group { order = Strategy.Ls; k = 4 }));
  checks "canonical printing" "ls-group:4"
    (match Strategy.of_string "group:4" with
    | Ok s -> Strategy.to_string s
    | Error e -> e)

(* ------------------------ validation ------------------------------- *)

(* Out-of-domain parameters: [check] names them, [build] refuses them. *)
let check_and_build_reject () =
  let rejects spec =
    Result.is_error (Strategy.check spec ~m:2)
    && try ignore (Strategy.build spec ~m:2); false with Invalid_argument _ -> true
  in
  List.iter
    (fun (label, spec) -> checkb label true (rejects spec))
    Strategy.
      [
        ("group k=0", Group { order = Ls; k = 0 });
        ("budgeted k=0", Budgeted 0);
        ("selective count=-1", Selective (-1));
        ("sabo nan", Sabo Float.nan);
        ("sabo -1", Sabo (-1.0));
        ("sabo inf", Sabo Float.infinity);
        ("abo nan", Abo Float.nan);
        ("memory 0", Memory_budget 0.0);
        ("proportional 1.5", Proportional 1.5);
        ("uniform empty speeds", Uniform { variant = U_no_choice; speeds = [||] });
        ( "uniform nan speed",
          Uniform { variant = U_no_choice; speeds = [| 1.0; Float.nan |] } );
      ];
  checkb "valid sabo accepted" true (Strategy.check (Sabo 0.5) ~m:2 = Ok ())

let no_replication_pins_tasks () =
  let instance =
    Instance.of_ests ~m:3 ~alpha:(Uncertainty.alpha 2.0) [| 4.0; 1.0; 3.0; 2.0; 5.0 |]
  in
  List.iter
    (fun order ->
      let spec = Strategy.No_replication order in
      checkb "grammar round trip" true
        (Strategy.of_string (Strategy.to_string spec) = Ok spec);
      let algo = Strategy.build spec ~m:3 in
      let realization = Realization.uniform_factor instance (Rng.create ~seed:2 ()) in
      let placement, schedule = Core.Two_phase.run_full algo instance realization in
      Array.iteri
        (fun j set ->
          checki "one replica" 1 (Bitset.cardinal set);
          checki "runs where placed" (Bitset.choose set)
            (Schedule.entry schedule j).Schedule.machine)
        (Helpers.task_sets (Core.Placement.sets placement)))
    [ Strategy.Lpt; Strategy.Ls ]

let speed_robust_spec () =
  let rejects k =
    Result.is_error (Strategy.check (Speed_robust { k }) ~m:4)
    && try ignore (Strategy.build (Speed_robust { k }) ~m:4); false
       with Invalid_argument _ -> true
  in
  checkb "k=0 rejected" true (rejects 0);
  checkb "negative k rejected" true (rejects (-2));
  let spec = Strategy.Speed_robust { k = 2 } in
  checkb "grammar round trip" true (Strategy.of_string (Strategy.to_string spec) = Ok spec);
  (* Without a band the instance falls back to nominal speeds; the k
     classes still split the machines, one replica in each. *)
  let instance = Instance.of_ests ~m:4 ~alpha:(Uncertainty.alpha 1.5) [| 3.0; 2.0; 1.0 |] in
  let placement = (Strategy.build spec ~m:4).Core.Two_phase.phase1 instance in
  Array.iter
    (fun set -> checki "one replica per class" 2 (Bitset.cardinal set))
    (Helpers.task_sets (Core.Placement.sets placement))

let build_rejects_m_mismatch () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "group k > m" true
    (rejects (fun () -> Strategy.(build (Group { order = Ls; k = 7 }) ~m:4)));
  checkb "speeds length <> m" true
    (rejects (fun () ->
         Strategy.(
           build (Uniform { variant = U_no_choice; speeds = [| 1.0; 2.0 |] }) ~m:3)));
  checkb "uniform group k > m" true
    (rejects (fun () ->
         Strategy.(
           build (Uniform { variant = U_group 5; speeds = [| 1.0; 1.0; 1.0 |] }) ~m:3)));
  (* The repo's machine_groups supports non-divisor k (uneven groups, a
     documented extension) — build must accept it. *)
  checkb "non-divisor k accepted" true
    (Strategy.(build (Group { order = Ls; k = 2 }) ~m:5)
     |> fun a -> a.Core.Two_phase.name = "LS-Group(k=2)");
  checkb "check mirrors build" true
    (Strategy.(check (Group { order = Ls; k = 7 }) ~m:4) <> Ok ()
    && Strategy.(check (Group { order = Ls; k = 2 }) ~m:5) = Ok ())

(* -------------------------- registry ------------------------------- *)

let registry_coverage () =
  checkb "non-empty" true (List.length Strategy.all >= 15);
  let keywords = List.map (fun e -> e.Strategy.keyword) Strategy.all in
  checki "keywords unique"
    (List.length keywords)
    (List.length (List.sort_uniq compare keywords));
  List.iter
    (fun e ->
      checkb (e.Strategy.keyword ^ " has a doc") true (e.Strategy.doc <> "");
      (* Example specs are valid at several m, build, and round-trip. *)
      List.iter
        (fun m ->
          let spec = e.Strategy.example ~m in
          checkb
            (Printf.sprintf "%s example valid at m=%d" e.Strategy.keyword m)
            true
            (Strategy.check spec ~m = Ok ());
          let algo = Strategy.build spec ~m in
          checks "name matches built algorithm" algo.Core.Two_phase.name
            (Strategy.name spec);
          checkb "example round-trips" true
            (Strategy.of_string (Strategy.to_string spec) = Ok spec))
        [ 1; 4; 8 ])
    Strategy.all

let registry_portfolio () =
  (* The derived portfolio reproduces the shape Scenarios hardcoded
     before the catalog: no replication, LS-Group at every proper
     divisor, one budgeted overlap, full replication. *)
  let specs = Strategy.default_portfolio ~m:6 in
  Alcotest.(check (list string))
    "m=6 portfolio"
    [ "lpt-no-choice"; "ls-group:2"; "ls-group:3"; "budgeted:3";
      "lpt-no-restriction" ]
    (List.map Strategy.to_string specs);
  let prime = Strategy.default_portfolio ~m:7 in
  Alcotest.(check (list string))
    "prime m has no group members"
    [ "lpt-no-choice"; "budgeted:3"; "lpt-no-restriction" ]
    (List.map Strategy.to_string prime);
  List.iter
    (fun spec -> checkb "member valid" true (Strategy.check spec ~m:6 = Ok ()))
    specs

(* ------------------------- catalog golden -------------------------- *)

(* A case: the spec, m, and what the instance and realization are drawn
   from. [zones > 1] attaches a zoned topology (zone placements then
   price links) and [banded] a widened tiered speed band (speed-robust
   classes then differ); sizes stay 1, so every generated memory budget
   (>= n) is feasible. *)
let golden_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* m = int_range 1 6 in
    let* spec = spec_gen ~n ~m in
    let* alpha = float_range 1.0 2.5 in
    let* ests = array_size (return n) (float_range 0.1 10.0) in
    let* extreme = bool in
    let* seed = int_bound 1_000_000 in
    let* zones = int_range 1 m in
    let* banded = bool in
    return (m, spec, alpha, ests, extreme, seed, zones, banded))

let golden_instance (m, _, alpha, ests, extreme, seed, zones, banded) =
  let topology =
    if zones > 1 then Some (Topology.zoned ~m ~zones ~bandwidth:0.5 ()) else None
  in
  let speed_band =
    if banded then Some (Speed_band.widen (Speed_band.tiered ~m) ~spread:1.5)
    else None
  in
  let instance =
    Instance.of_ests ?topology ?speed_band ~m ~alpha:(Uncertainty.alpha alpha) ests
  in
  let rng = Rng.create ~seed () in
  let realization =
    if extreme then Realization.extremes ~p_high:0.5 instance rng
    else Realization.uniform_factor instance rng
  in
  (instance, realization)

(* The catalog golden: [catalog_cases] cases drawn from [golden_gen] at a
   fixed seed, each built through [Strategy.build] and run through both
   phases. Per case it records the spec, m, the algorithm name, every
   task's holder set and its schedule entry, floats in exact hex ([%h]),
   and must match [golden_catalog/catalog.txt] byte for byte.

   To regenerate after an intended change, run `dune runtest`: on a
   mismatch this test writes the new rendering to
   _build/default/test/catalog.actual; copy it to
   test/golden_catalog/catalog.txt. *)
let catalog_cases = 320
let catalog_golden = Filename.concat "golden_catalog" "catalog.txt"

let catalog () =
  QCheck.Gen.generate ~rand:(Random.State.make [| 28 |]) ~n:catalog_cases
    golden_gen

let render_case b index ((m, spec, _, _, _, _, zones, banded) as case) =
  let instance, realization = golden_instance case in
  let algo = Strategy.build spec ~m in
  let placement, schedule = Core.Two_phase.run_full algo instance realization in
  Printf.bprintf b "case %d spec=%s m=%d zones=%d banded=%b name=%s\n" index
    (Strategy.to_string spec) m zones banded algo.Core.Two_phase.name;
  Array.iteri
    (fun j set ->
      let e = Schedule.entry schedule j in
      Printf.bprintf b "  %d {%s} -> %d [%h, %h]\n" j
        (String.concat "," (List.map string_of_int (Helpers.elements set)))
        e.Schedule.machine e.Schedule.start e.Schedule.finish)
    (Helpers.task_sets (Core.Placement.sets placement))

let catalog_covers_every_family () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (_, spec, _, _, _, _, _, _) ->
      let s = Strategy.to_string spec in
      let keyword =
        match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s
      in
      Hashtbl.replace seen keyword ())
    (catalog ());
  List.iter
    (fun e ->
      checkb (e.Strategy.keyword ^ " in the catalog golden") true
        (Hashtbl.mem seen e.Strategy.keyword))
    Strategy.all

let catalog_matches_golden () =
  let b = Buffer.create (1 lsl 16) in
  List.iteri (render_case b) (catalog ());
  let actual = Buffer.contents b in
  let expected =
    if Sys.file_exists catalog_golden then
      In_channel.with_open_bin catalog_golden In_channel.input_all
    else ""
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "catalog.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "%s differs; the new rendering is in catalog.actual"
      catalog_golden
  end

(* ---------------------------- ownership ---------------------------- *)

(* The instance, the realization and the placement hand out their
   columns uncopied, so no library call may write into a column it
   reads. Each call below is checked against bit copies of every column
   taken before it: estimates, sizes, actual times and each task's
   machine set. *)
module Placement = Usched_core.Placement
module Engine = Usched_desim.Engine
module Recovery = Usched_faults.Recovery
module Fault_trace = Usched_faults.Trace
module Metrics = Usched_obs.Metrics
module Pipeline = Usched_experiments.Pipeline

let bits a = Array.map Int64.bits_of_float a

(* The holder sets as each task's members, with the index and the
   number of distinct sets: a replay that wrote into the placement's
   table or index would change one of them. *)
let columns ?realization ?sets instance =
  ( bits (Instance.ests instance),
    bits (Instance.sizes instance),
    Option.fold ~none:[||] ~some:(fun r -> bits (Realization.actuals r)) realization,
    Option.fold ~none:([||], [||], 0)
      ~some:(fun h ->
        ( Array.map Helpers.elements (Helpers.task_sets h),
          Array.copy h.Helpers.Holders.index,
          Usched_model.Set_table.count h.Helpers.Holders.table ))
      sets )

let check_unchanged what before ?realization ?sets instance =
  let ests, sizes, actuals, held = before
  and ests', sizes', actuals', held' = columns ?realization ?sets instance in
  let same name a b = if a <> b then Alcotest.failf "%s wrote into %s" what name in
  same "the estimates" ests ests';
  same "the sizes" sizes sizes';
  same "the actual times" actuals actuals';
  same "the machine sets" held held'

(* Both phases of every catalog case, then every whole-placement and
   whole-schedule read [usched solve] makes after them. *)
let catalog_reads_only () =
  List.iteri
    (fun index ((m, spec, _, _, _, _, _, _) as case) ->
      let instance, realization = golden_instance case in
      let what = Printf.sprintf "case %d (%s)" index (Strategy.to_string spec) in
      let algo = Strategy.build spec ~m in
      let before = columns ~realization instance in
      let placement = algo.Core.Two_phase.phase1 instance in
      check_unchanged (what ^ " phase 1") before ~realization instance;
      let sets = Placement.sets placement in
      let before = columns ~realization ~sets instance in
      let schedule = algo.Core.Two_phase.phase2 instance placement realization in
      let actuals = Realization.actuals realization
      and sizes = Instance.sizes instance in
      ignore (Core.Lower_bounds.best ~m actuals);
      ignore (Core.Uniform.lower_bound ~speeds:(Array.make m 1.5) actuals);
      ignore (Placement.memory_max placement ~sizes);
      ignore
        (Placement.replication_cost placement
           ~topology:(Instance.topology_or_uniform instance) ~sizes);
      ignore (Placement.max_replication placement);
      ignore (Usched_desim.Timeline.render_stats schedule);
      ignore
        (Engine.run ~dispatch:Usched_desim.Dispatch.Least_loaded_holder instance
           realization ~placement:sets ~order:(Instance.lpt_order instance));
      check_unchanged (what ^ " phase 2 and its reports") before ~realization
        ~sets instance)
    (catalog ())

(* The healer is the one writer of holder sets: it grows its own copies
   mid-run. Group sets are shared by every task of a group, so a write
   into one would show in every task's set. *)
let healer_writes_private_copies () =
  let m = 6 and n = 40 in
  let rereplications = ref 0 in
  for seed = 1 to 12 do
    let rng = Rng.create ~seed () in
    let instance =
      Usched_model.Workload.generate
        (Usched_model.Workload.Uniform { lo = 1.0; hi = 10.0 })
        ~size_spec:(Usched_model.Workload.Uniform_sizes { lo = 0.5; hi = 4.0 })
        ~n ~m ~alpha:(Uncertainty.alpha 2.0) rng
    in
    let realization = Realization.log_uniform_factor instance rng in
    let placement =
      Core.Group_replication.placement ~order:`Lpt ~k:2 instance
    in
    let sets = Placement.sets placement in
    let faults = Fault_trace.random_crashes rng ~m ~p:0.4 ~horizon:40.0 in
    let recovery =
      Recovery.make ~detection_latency:0.5
        ~rereplication_target:(Recovery.Fixed 3) ~bandwidth:2.0
        ~checkpoint_interval:1.0 ()
    in
    let order = Instance.lpt_order instance in
    let before = columns ~realization ~sets instance in
    let metrics = Metrics.create () in
    let outcome =
      Engine.run_faulty ~speculation:1.5 ~recovery ~metrics instance realization
        ~faults ~placement:sets ~order
    in
    check_unchanged (Printf.sprintf "run_faulty seed %d" seed) before
      ~realization ~sets instance;
    (match Metrics.find outcome.Engine.metrics "engine.rereplications" with
    | Some (Metrics.Counter k) -> rereplications := !rereplications + k
    | _ -> ());
    let arrivals = Array.init n (fun j -> 0.4 *. float_of_int j) in
    ignore
      (Engine.run_stream ~speculation:1.5 ~recovery ~faults instance realization
         ~arrivals ~placement:sets ~order:(Array.init n Fun.id));
    check_unchanged (Printf.sprintf "run_stream seed %d" seed) before
      ~realization ~sets instance
  done;
  checkb "the healer ran" true (!rereplications > 0)

(* [usched solve] on a small instance file with a trace, speeds, a
   non-default policy and a healing faulty replay. Its realization and
   placement live inside the call; the cases above check the library
   calls it makes on them. *)
let solve_reads_only () =
  let dir = Filename.temp_file "usched_own" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file = Filename.concat dir "small.usched"
  and trace = Filename.concat dir "trace.jsonl" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ file; trace ];
      Sys.rmdir dir)
  @@ fun () ->
  let rng = Rng.create ~seed:5 () in
  Usched_model.Io.save_instance ~path:file
    (Usched_model.Workload.generate
       (Usched_model.Workload.Uniform { lo = 1.0; hi = 10.0 })
       ~size_spec:(Usched_model.Workload.Uniform_sizes { lo = 0.5; hi = 4.0 })
       ~n:30 ~m:4 ~alpha:(Uncertainty.alpha 2.0) rng);
  let instance = Usched_model.Io.load_instance ~path:file in
  let options =
    {
      Pipeline.default with
      algo = Strategy.Group { order = Strategy.Ls; k = 2 };
      speeds = Some [| 1.0; 2.0; 1.0; 0.5 |];
      policy = Usched_desim.Dispatch.Least_loaded_holder;
      fail_rate = 0.5;
      speculate = Some 1.5;
      recover = Recovery.Fixed 2;
      trace = Some trace;
    }
  in
  let before = columns instance in
  (match Pipeline.run_instance options ~file instance with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "solve: %s" msg);
  check_unchanged "solve" before instance

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "strategy"
    [
      ( "grammar",
        [
          QCheck_alcotest.to_alcotest round_trip;
          Alcotest.test_case "awkward floats" `Quick awkward_float_round_trip;
          Alcotest.test_case "negative cases" `Quick negative_cases;
          Alcotest.test_case "reliability errors show grammar" `Quick
            reliability_errors_show_grammar;
          Alcotest.test_case "unknown name lists grammar" `Quick
            unknown_name_lists_grammar;
          Alcotest.test_case "unknown name suggests" `Quick
            unknown_name_suggests;
          Alcotest.test_case "group alias" `Quick group_alias;
        ] );
      ( "validation",
        [
          Alcotest.test_case "check and build reject" `Quick check_and_build_reject;
          Alcotest.test_case "build m checks" `Quick build_rejects_m_mismatch;
          Alcotest.test_case "no replication pins tasks" `Quick
            no_replication_pins_tasks;
          Alcotest.test_case "speed-robust spec" `Quick speed_robust_spec;
        ] );
      ( "registry",
        [
          Alcotest.test_case "coverage" `Quick registry_coverage;
          Alcotest.test_case "default portfolio" `Quick registry_portfolio;
        ] );
      ( "golden",
        [
          Alcotest.test_case "catalog covers every family" `Quick
            catalog_covers_every_family;
          Alcotest.test_case "catalog golden" `Quick catalog_matches_golden;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "catalog reads only" `Quick catalog_reads_only;
          Alcotest.test_case "healer writes private copies" `Quick
            healer_writes_private_copies;
          Alcotest.test_case "solve reads only" `Quick solve_reads_only;
        ] );
    ]
