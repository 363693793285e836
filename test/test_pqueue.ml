(* Unit and property tests for the binary heap. *)


let checkb = Alcotest.(check bool)
let int_compare = Int.compare

let push_pop_sorted () =
  let q = Pqueue.create ~compare:int_compare () in
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "ascending" [ 1; 1; 2; 3; 4; 5; 9 ] (Pqueue.drain q)

let empty_behaviour () =
  let q = Pqueue.create ~compare:int_compare () in
  checkb "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Pqueue.length q);
  checkb "pop none" true (Pqueue.pop q = None);
  checkb "peek none" true (Pqueue.peek q = None);
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Pqueue.pop_exn: empty heap") (fun () ->
      ignore (Pqueue.pop_exn q))

let peek_does_not_remove () =
  let q = Pqueue.create ~compare:int_compare () in
  Pqueue.push q 3;
  Pqueue.push q 1;
  checkb "peek smallest" true (Pqueue.peek q = Some 1);
  Alcotest.(check int) "still 2 elements" 2 (Pqueue.length q)

let of_array_heapifies () =
  let q = Pqueue.of_array ~compare:int_compare [| 9; 3; 7; 1; 5 |] in
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5; 7; 9 ] (Pqueue.drain q)

let interleaved_operations () =
  let q = Pqueue.create ~compare:int_compare () in
  Pqueue.push q 5;
  Pqueue.push q 2;
  Alcotest.(check int) "first pop" 2 (Pqueue.pop_exn q);
  Pqueue.push q 1;
  Pqueue.push q 7;
  Alcotest.(check int) "second pop" 1 (Pqueue.pop_exn q);
  Alcotest.(check int) "third pop" 5 (Pqueue.pop_exn q);
  Alcotest.(check int) "fourth pop" 7 (Pqueue.pop_exn q);
  checkb "now empty" true (Pqueue.is_empty q)

let tie_breaking_via_compare () =
  (* The engine relies on lexicographic (time, id) comparison. *)
  let compare (ta, ia) (tb, ib) =
    match Float.compare ta tb with 0 -> Int.compare ia ib | c -> c
  in
  let q = Pqueue.create ~compare () in
  List.iter (Pqueue.push q) [ (1.0, 3); (1.0, 1); (0.5, 9); (1.0, 2) ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "time then id"
    [ (0.5, 9); (1.0, 1); (1.0, 2); (1.0, 3) ]
    (Pqueue.drain q)

(* A drained queue must not keep popped payloads reachable: the engine
   holds one queue for a whole run, so a leaked slot pins event payloads
   (closures over large simulation state) for the run's lifetime. Weak
   pointers see through the heap's internal array. *)
let no_retention_after_drain () =
  let compare (a, _) (b, _) = Int.compare a b in
  let q = Pqueue.create ~compare () in
  let n = 64 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let boxed = (i, ref i) in
    Weak.set weak i (Some boxed);
    Pqueue.push q boxed
  done;
  (* Interleave pops and pushes so the heap grows, shrinks and re-grows
     (exercising the grow-array fill and the vacated-slot aliasing). *)
  for _ = 1 to n / 2 do
    ignore (Pqueue.pop q)
  done;
  for i = n to n + 7 do
    let boxed = (i, ref i) in
    Pqueue.push q boxed
  done;
  while not (Pqueue.is_empty q) do
    ignore (Pqueue.pop q)
  done;
  Gc.full_major ();
  let leaked = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr leaked
  done;
  Alcotest.(check int) "no payload survives a full drain" 0 !leaked;
  (* The queue stays usable after releasing its storage. *)
  Pqueue.push q (42, ref 42);
  Alcotest.(check int) "reusable" 42 (fst (Pqueue.pop_exn q))

let prop_drain_is_sorted =
  QCheck.Test.make ~name:"drain yields a sorted permutation" ~count:300
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.create ~compare:int_compare () in
      List.iter (Pqueue.push q) xs;
      Pqueue.drain q = List.sort int_compare xs)

let prop_mixed_against_model =
  QCheck.Test.make ~name:"interleaved push/pop matches sorted-list model"
    ~count:300
    QCheck.(small_list (option small_int))
    (fun ops ->
      (* Some x = push x; None = pop. *)
      let q = Pqueue.create ~compare:int_compare () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Pqueue.push q x;
              model := List.sort int_compare (x :: !model);
              true
          | None -> (
              match (Pqueue.pop q, !model) with
              | None, [] -> true
              | Some v, x :: rest when v = x ->
                  model := rest;
                  true
              | _ -> false))
        ops)

let () =
  Alcotest.run "pqueue"
    [
      ( "unit",
        [
          Alcotest.test_case "push/pop sorted" `Quick push_pop_sorted;
          Alcotest.test_case "empty" `Quick empty_behaviour;
          Alcotest.test_case "peek" `Quick peek_does_not_remove;
          Alcotest.test_case "of_array" `Quick of_array_heapifies;
          Alcotest.test_case "interleaved" `Quick interleaved_operations;
          Alcotest.test_case "tie breaking" `Quick tie_breaking_via_compare;
          Alcotest.test_case "no retention" `Quick no_retention_after_drain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_drain_is_sorted; prop_mixed_against_model ] );
    ]
