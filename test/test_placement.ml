(* Unit tests for placements. *)

module Placement = Usched_core.Placement
module Bitset = Usched_model.Bitset

let close = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let singletons_basic () =
  let p = Placement.singletons ~m:3 [| 0; 2; 2 |] in
  checki "n" 3 (Placement.n p);
  checki "m" 3 (Bitset.capacity (Placement.set p 0));
  checkb "task 0 on machine 0" true (Placement.allowed p ~task:0 ~machine:0);
  checkb "task 0 not on machine 1" false (Placement.allowed p ~task:0 ~machine:1);
  checki "replication" 1 (Placement.replication p 1);
  checki "max replication" 1 (Placement.max_replication p);
  checki "total replicas" 3 (Placement.total_replicas p)

let full_basic () =
  let p = Placement.full ~m:4 ~n:2 in
  checki "max replication" 4 (Placement.max_replication p);
  checki "total replicas" 8 (Placement.total_replicas p);
  checkb "everywhere" true (Placement.allowed p ~task:1 ~machine:3)

let group_assignment_basic () =
  let groups = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let p = Placement.of_group_assignment ~m:4 ~groups [| 0; 1; 0 |] in
  checkb "task 1 in group 1" true (Placement.allowed p ~task:1 ~machine:2);
  checkb "task 1 not in group 0" false (Placement.allowed p ~task:1 ~machine:0);
  checki "replication is group size" 2 (Placement.max_replication p)

(* Distinct sets compare by membership, not identity, and come out in
   order of first occurrence. *)
let distinct_sets_first_occurrence () =
  let set l = Bitset.of_list 4 l in
  let p =
    Placement.of_sets ~m:4
      [| set [ 2; 3 ]; set [ 0 ]; set [ 2; 3 ]; set [ 0; 1 ]; set [ 0 ] |]
  in
  let holders = Placement.sets p in
  let groups = Usched_model.Set_table.to_array holders.Usched_model.Holders.table in
  Alcotest.(check (list (list int)))
    "groups" [ [ 2; 3 ]; [ 0 ]; [ 0; 1 ] ]
    (Array.to_list (Array.map Helpers.elements groups));
  Alcotest.(check (array int)) "group of each task" [| 0; 1; 0; 2; 1 |]
    holders.Usched_model.Holders.index

(* The constructors that hand a phase-1 assignment over as the index
   number the sets exactly as interning the per-task sets does: by
   first occurrence over task ids, equal sets sharing one index (two
   groups on the same machines, the full set of one machine and its
   singleton). *)
let same_numbering what p =
  let module Holders = Usched_model.Holders in
  let module Set_table = Usched_model.Set_table in
  let h = Placement.sets p in
  let interned = Holders.of_sets (Helpers.task_sets h) in
  let elements holders =
    Array.map Helpers.elements (Set_table.to_array holders.Holders.table)
  in
  Alcotest.(check (array int)) (what ^ ": index") interned.Holders.index h.Holders.index;
  Alcotest.(check (array (list int))) (what ^ ": sets") (elements interned) (elements h)

let labels_numbered_like_interning () =
  let rng = Random.State.make [| 7 |] in
  for m = 1 to 5 do
    let n = 40 in
    let labels k = Array.init n (fun _ -> Random.State.int rng k) in
    same_numbering "singletons" (Placement.singletons ~m (labels m));
    same_numbering "full" (Placement.full ~m ~n);
    same_numbering "pinned or full"
      (Placement.pinned_or_full ~m
         ~replicated:(Array.init n (fun _ -> Random.State.bool rng))
         (labels m));
    let groups = [| [| 0 |]; Array.init m Fun.id; [| m - 1 |]; [| 0 |] |] in
    same_numbering "groups" (Placement.of_group_assignment ~m ~groups (labels 4))
  done

let out_of_range_machine_rejected () =
  Alcotest.check_raises "singletons"
    (Invalid_argument "Holders.of_labels: task 1 has label 2") (fun () ->
      ignore (Placement.singletons ~m:2 [| 0; 2 |]));
  Alcotest.check_raises "pinned or full"
    (Invalid_argument "Placement.pinned_or_full: task 1 has machine 2") (fun () ->
      ignore (Placement.pinned_or_full ~m:2 ~replicated:[| true; false |] [| 5; 2 |]))

let empty_set_rejected () =
  Alcotest.check_raises "empty machine set"
    (Invalid_argument "Placement.of_sets: task 0 placed nowhere") (fun () ->
      ignore (Placement.of_sets ~m:2 [| Bitset.create 2 |]))

let capacity_mismatch_rejected () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Placement.of_sets: task 0 capacity mismatch") (fun () ->
      ignore (Placement.of_sets ~m:2 [| Bitset.singleton 3 0 |]))

let memory_loads_count_every_replica () =
  (* Task 0 (size 2) everywhere; task 1 (size 3) only on machine 1. *)
  let sets = [| Bitset.full 2; Bitset.singleton 2 1 |] in
  let p = Placement.of_sets ~m:2 sets in
  let loads = Placement.memory_loads p ~sizes:[| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "per machine" [| 2.0; 5.0 |] loads;
  close "mem_max" 5.0 (Placement.memory_max p ~sizes:[| 2.0; 3.0 |])

let degrees_per_task () =
  let p =
    Placement.of_sets ~m:4
      [| Bitset.of_list 4 [ 0 ]; Bitset.of_list 4 [ 1; 3 ]; Bitset.full 4 |]
  in
  let degrees = Array.init (Placement.n p) (Placement.replication p) in
  Alcotest.(check (array int)) "one entry per task, its replica count"
    [| 1; 2; 4 |] degrees;
  checki "max replication agrees" 4 (Placement.max_replication p);
  checki "total replicas agree" 7 (Placement.total_replicas p)

let memory_sizes_length_checked () =
  let p = Placement.full ~m:2 ~n:2 in
  Alcotest.check_raises "length"
    (Invalid_argument "Placement.memory_loads: sizes length mismatch") (fun () ->
      ignore (Placement.memory_loads p ~sizes:[| 1.0 |]))

let failure_with_replication_survives () =
  checkb "survives any failure" true
    (Placement.survives_any_failure (Placement.full ~m:3 ~n:2));
  checkb "one machine never survives" false
    (Placement.survives_any_failure (Placement.full ~m:1 ~n:2))

let failure_without_replication_fatal () =
  let p = Placement.singletons ~m:2 [| 0; 1 |] in
  checkb "does not survive" false (Placement.survives_any_failure p);
  let mixed =
    Placement.of_sets ~m:3 [| Bitset.of_list 3 [ 0; 1 ]; Bitset.singleton 3 2 |]
  in
  checkb "one single-replica task is enough to fail" false
    (Placement.survives_any_failure mixed)

(* Oracles for the word-level scans: per-task folds that walk each set
   one bounds-checked position at a time, in ascending order. *)
module Topology = Usched_model.Topology

let machines p = Bitset.capacity (Placement.set p 0)
let members set = List.filter (Bitset.mem set) (List.init (Bitset.capacity set) Fun.id)

let memory_loads_oracle p ~sizes =
  let loads = Array.make (machines p) 0.0 in
  Array.iteri
    (fun j set -> List.iter (fun i -> loads.(i) <- loads.(i) +. sizes.(j)) (members set))
    (Helpers.task_sets (Placement.sets p));
  loads

let replication_costs_oracle p ~topology ~sizes =
  Array.mapi
    (fun j set ->
      List.fold_left
        (fun acc i ->
          acc
          +. Topology.staging_time topology ~src:(j mod machines p) ~dst:i
               ~size:sizes.(j))
        0.0 (members set))
    (Helpers.task_sets (Placement.sets p))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* A random symmetric zone matrix pair; [zones = 1] is the uniform
   topology. *)
let random_topology rng ~m ~zones =
  if zones = 1 then Topology.uniform ~m
  else begin
    let bandwidth = Array.make_matrix zones zones infinity in
    let latency = Array.make_matrix zones zones 0.0 in
    for r = 0 to zones - 1 do
      for c = r + 1 to zones - 1 do
        let bw = 0.1 +. Random.State.float rng 10.0 and lat = Random.State.float rng 2.0 in
        bandwidth.(r).(c) <- bw;
        bandwidth.(c).(r) <- bw;
        latency.(r).(c) <- lat;
        latency.(c).(r) <- lat
      done
    done;
    Topology.make ~zone_of:(Array.init m (fun i -> i mod zones)) ~bandwidth ~latency
  end

let prop_scans_match_oracles =
  QCheck.Test.make
    ~name:"memory loads and replication costs match the oracles bit for bit"
    ~count:300
    QCheck.(quad (int_range 1 130) (int_range 1 40) (int_range 1 4) int)
    (fun (m, n, zones, seed) ->
      let rng = Random.State.make [| seed |] in
      let density = 1 + Random.State.int rng 100 in
      let sets =
        Array.init n (fun j ->
            let set = Bitset.singleton m (j mod m) in
            for i = 0 to m - 1 do
              if Random.State.int rng 100 < density then Bitset.add set i
            done;
            set)
      in
      let p = Placement.of_sets ~m sets in
      let sizes = Array.init n (fun _ -> Random.State.float rng 1e3 /. 7.0) in
      let topology = random_topology rng ~m ~zones:(min zones m) in
      let costs = Placement.replication_costs p ~topology ~sizes in
      let oracle = replication_costs_oracle p ~topology ~sizes in
      same_bits (Placement.memory_loads p ~sizes) (memory_loads_oracle p ~sizes)
      && same_bits costs oracle
      && Int64.bits_of_float (Placement.replication_cost p ~topology ~sizes)
         = Int64.bits_of_float (Array.fold_left ( +. ) 0.0 oracle))

let replication_cost_validates_uniform () =
  let p = Placement.full ~m:3 ~n:2 in
  let uniform = Topology.uniform ~m:3 in
  close "free on one zone" 0.0 (Placement.replication_cost p ~topology:uniform ~sizes:[| 1.0; 2.0 |]);
  Alcotest.check_raises "sizes still checked"
    (Invalid_argument "Placement.replication_costs: sizes length mismatch") (fun () ->
      ignore (Placement.replication_cost p ~topology:uniform ~sizes:[| 1.0 |]));
  Alcotest.check_raises "machine count still checked"
    (Invalid_argument
       "Placement.replication_costs: topology covers 2 machines, placement has 3")
    (fun () ->
      ignore
        (Placement.replication_cost p ~topology:(Topology.uniform ~m:2)
           ~sizes:[| 1.0; 2.0 |]))

let () =
  Alcotest.run "placement"
    [
      ( "unit",
        [
          Alcotest.test_case "singletons" `Quick singletons_basic;
          Alcotest.test_case "full" `Quick full_basic;
          Alcotest.test_case "groups" `Quick group_assignment_basic;
          Alcotest.test_case "empty rejected" `Quick empty_set_rejected;
          Alcotest.test_case "distinct sets" `Quick distinct_sets_first_occurrence;
          Alcotest.test_case "assignments numbered like interning" `Quick
            labels_numbered_like_interning;
          Alcotest.test_case "out-of-range machine rejected" `Quick
            out_of_range_machine_rejected;
          Alcotest.test_case "capacity rejected" `Quick capacity_mismatch_rejected;
          Alcotest.test_case "memory loads" `Quick memory_loads_count_every_replica;
          Alcotest.test_case "degrees" `Quick degrees_per_task;
          Alcotest.test_case "memory length check" `Quick memory_sizes_length_checked;
        ] );
      ( "machine failure",
        [
          Alcotest.test_case "replication survives" `Quick
            failure_with_replication_survives;
          Alcotest.test_case "no replication is fatal" `Quick
            failure_without_replication_fatal;
        ] );
      ( "scans",
        Alcotest.test_case "uniform cost still validates" `Quick
          replication_cost_validates_uniform
        :: List.map QCheck_alcotest.to_alcotest [ prop_scans_match_oracles ] );
    ]
