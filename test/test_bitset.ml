(* Unit and property tests for the Bitset substrate. *)

module Bitset = Usched_model.Bitset

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let empty_properties () =
  let s = Bitset.create 100 in
  checki "cardinal" 0 (Bitset.cardinal s);
  checkb "is_empty" true (Bitset.is_empty s);
  check_list "to_list" [] (Helpers.elements s);
  checki "capacity" 100 (Bitset.capacity s)

let add_mem_remove () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 99;
  checkb "mem 0" true (Bitset.mem s 0);
  checkb "mem 61 (word boundary)" true (Bitset.mem s 61);
  checkb "mem 62 (next word)" true (Bitset.mem s 62);
  checkb "mem 99" true (Bitset.mem s 99);
  checkb "not mem 50" false (Bitset.mem s 50);
  checki "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 61;
  checkb "removed" false (Bitset.mem s 61);
  checki "cardinal after remove" 3 (Bitset.cardinal s)

let add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  checki "no double count" 1 (Bitset.cardinal s)

let out_of_range_rejected () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: element out of range")
    (fun () -> Bitset.add s 10);
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: element out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

let full_and_singleton () =
  let f = Bitset.full 70 in
  checki "full cardinal" 70 (Bitset.cardinal f);
  checkb "full mem" true (Bitset.mem f 69);
  let s = Bitset.singleton 70 42 in
  checki "singleton cardinal" 1 (Bitset.cardinal s);
  check_list "singleton member" [ 42 ] (Helpers.elements s);
  checki "choose" 42 (Bitset.choose s)

let choose_empty_raises () =
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 5)))

let iter_ascending () =
  let s = Bitset.of_list 200 [ 150; 3; 77; 0; 199 ] in
  check_list "ascending order" [ 0; 3; 77; 150; 199 ] (Helpers.elements s)

let fold_sums () =
  let s = Bitset.of_list 10 [ 1; 2; 3 ] in
  checki "fold" 6 (Bitset.fold ( + ) 0 s)

let inter () =
  let a = Bitset.of_list 128 [ 1; 64; 100 ] in
  let b = Bitset.of_list 128 [ 64; 100; 2 ] in
  check_list "inter" [ 64; 100 ] (Helpers.elements (Bitset.inter a b))

let inter_scans () =
  let a = Bitset.of_list 128 [ 1; 61; 62; 127 ] in
  let b = Bitset.of_list 128 [ 2; 62; 127 ] in
  let c = Bitset.of_list 128 [ 0; 63; 126 ] in
  checki "inter_cardinal across words" 2 (Bitset.inter_cardinal a b);
  checkb "overlap in a later word" false (Bitset.inter_is_empty a b);
  checki "disjoint cardinal" 0 (Bitset.inter_cardinal a c);
  checkb "disjoint" true (Bitset.inter_is_empty a c);
  checkb "empty set meets nothing" true (Bitset.inter_is_empty (Bitset.create 128) a);
  checki "self" 4 (Bitset.inter_cardinal a a);
  Alcotest.check_raises "inter_is_empty mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.inter_is_empty a (Bitset.create 64)));
  Alcotest.check_raises "inter_cardinal mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.inter_cardinal a (Bitset.create 64)))

let capacity_mismatch_rejected () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  Alcotest.check_raises "inter mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.inter a b))

let subset () =
  let a = Bitset.of_list 64 [ 1; 2 ] in
  let b = Bitset.of_list 64 [ 1; 2; 3 ] in
  checkb "a subset b" true (Bitset.subset a b);
  checkb "b not subset a" false (Bitset.subset b a)

let copy_is_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  checkb "original untouched" false (Bitset.mem a 2);
  checkb "copy updated" true (Bitset.mem b 2)

(* Property tests: Bitset behaves exactly like a reference set of ints. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"bitset matches reference model" ~count:200
    QCheck.(pair (int_bound 300) (small_list (int_bound 500)))
    (fun (capacity, raw_ops) ->
      let capacity = capacity + 1 in
      let ops = List.map (fun x -> x mod capacity) raw_ops in
      let s = Bitset.create capacity in
      let reference = Hashtbl.create 16 in
      List.iteri
        (fun i x ->
          if i mod 3 = 2 then begin
            Bitset.remove s x;
            Hashtbl.remove reference x
          end
          else begin
            Bitset.add s x;
            Hashtbl.replace reference x ()
          end)
        ops;
      let expected =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reference [])
      in
      Helpers.elements s = expected
      && Bitset.cardinal s = List.length expected)

let prop_union_cardinality =
  QCheck.Test.make ~name:"inclusion-exclusion for union/inter" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let union = List.length (List.sort_uniq compare (xs @ ys)) in
      union + Bitset.cardinal (Bitset.inter a b)
      = Bitset.cardinal a + Bitset.cardinal b)

let prop_inter_scans_match_inter =
  QCheck.Test.make ~name:"inter_is_empty/inter_cardinal match inter" ~count:300
    QCheck.(
      triple (int_bound 200) (small_list (int_bound 199)) (small_list (int_bound 199)))
    (fun (capacity, xs, ys) ->
      let capacity = capacity + 1 in
      let a = Bitset.of_list capacity (List.map (fun x -> x mod capacity) xs) in
      let b = Bitset.of_list capacity (List.map (fun y -> y mod capacity) ys) in
      let both = Bitset.inter a b in
      Bitset.inter_cardinal a b = Bitset.cardinal both
      && Bitset.inter_is_empty a b = Bitset.is_empty both)

(* Oracle for the word-level scans: the per-position definition, one
   bounds-checked [mem] per bit position. *)
let iter_by_mem f s =
  for i = 0 to Bitset.capacity s - 1 do
    if Bitset.mem s i then f i
  done

let visits iter s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let scans_agree s =
  let expected = visits iter_by_mem s in
  visits Bitset.iter s = expected
  && Bitset.fold (fun acc i -> i :: acc) [] s = List.rev expected
  &&
  (match expected with
  | [] -> (
      match Bitset.choose s with _ -> false | exception Not_found -> true)
  | smallest :: _ -> Bitset.choose s = smallest)
  && List.for_all
       (fun start ->
         let want =
           match List.find_opt (fun i -> i >= start) expected with
           | Some i -> i
           | None -> -1
         in
         Bitset.next s start = want)
       (List.init (Bitset.capacity s + 2) Fun.id)

(* Capacities around the 62-bit word boundaries. *)
let boundary_capacities = [ 0; 1; 61; 62; 63; 124; 125 ]

let scans_at_word_boundaries () =
  List.iter
    (fun capacity ->
      let sets =
        [ Bitset.create capacity; Bitset.full capacity ]
        @ (if capacity = 0 then []
           else
             [
               Bitset.singleton capacity 0;
               Bitset.singleton capacity (capacity - 1);
               Bitset.of_list capacity [ 0; capacity - 1; capacity / 2 ];
             ])
      in
      List.iter
        (fun s ->
          checkb
            (Printf.sprintf "capacity %d: {%s}" capacity
               (String.concat ", " (List.map string_of_int (Helpers.elements s))))
            true (scans_agree s))
        sets)
    boundary_capacities

let prop_scans_match_mem =
  QCheck.Test.make ~name:"iter/fold/choose match a per-position mem loop"
    ~count:500
    QCheck.(quad (int_bound 9) (int_bound 300) (int_bound 100) int)
    (fun (pick, random_capacity, density, seed) ->
      let capacity =
        if pick < List.length boundary_capacities then
          List.nth boundary_capacities pick
        else random_capacity
      in
      let rng = Random.State.make [| seed |] in
      let s = Bitset.create capacity in
      for i = 0 to capacity - 1 do
        if Random.State.int rng 100 < density then Bitset.add s i
      done;
      scans_agree s)

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick empty_properties;
          Alcotest.test_case "add/mem/remove" `Quick add_mem_remove;
          Alcotest.test_case "add idempotent" `Quick add_idempotent;
          Alcotest.test_case "range checks" `Quick out_of_range_rejected;
          Alcotest.test_case "full and singleton" `Quick full_and_singleton;
          Alcotest.test_case "choose empty" `Quick choose_empty_raises;
          Alcotest.test_case "iteration order" `Quick iter_ascending;
          Alcotest.test_case "fold" `Quick fold_sums;
          Alcotest.test_case "inter" `Quick inter;
          Alcotest.test_case "inter scans" `Quick inter_scans;
          Alcotest.test_case "capacity mismatch" `Quick capacity_mismatch_rejected;
          Alcotest.test_case "subset" `Quick subset;
          Alcotest.test_case "copy independence" `Quick copy_is_independent;
          Alcotest.test_case "scans at word boundaries" `Quick
            scans_at_word_boundaries;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_reference;
            prop_union_cardinality;
            prop_inter_scans_match_inter;
            prop_scans_match_mem;
          ] );
    ]
