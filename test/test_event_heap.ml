(* The SoA 4-ary event heap under the desim engine: unit behaviour,
   equivalence with the binary [Pqueue] under the engine's total event
   order (the refactor's claim that arity and layout cannot change the
   pop sequence), the alloc/sift_up direct-lane push pattern, and the
   no-retention-after-drain guarantee ported from the Pqueue suite. The
   record-form events and their comparator are the frozen reference
   engine's ([Reference_engine.R_event]). *)

module Event_heap = Usched_desim.Event_heap
module Rng = Usched_prng.Rng
module R_event = Reference_engine.R_event

(* Root lanes: slot 0 holds the minimum of a non-empty heap. *)
let root_time q = q.Event_heap.times.(0)
let root_machine q = q.Event_heap.machines.(0)
let root_cls q = q.Event_heap.classes.(0)
let root_aux q = q.Event_heap.aux.(0)
let root_aux2 q = q.Event_heap.aux2.(0)
let root_payload q = q.Event_heap.payloads.(0)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------ unit -------------------------------- *)

let empty_behaviour () =
  let q = Event_heap.create ~dummy:(-1) in
  checkb "is_empty" true (Event_heap.is_empty q);
  checki "length 0" 0 (Event_heap.length q);
  Alcotest.check_raises "remove_min raises"
    (Invalid_argument "Event_heap.remove_min: empty heap") (fun () ->
      Event_heap.remove_min q)

let aux_lanes_round_trip () =
  let q = Event_heap.create ~dummy:(-1) in
  Event_heap.push_aux q ~time:2.0 ~machine:1 ~cls:Event_heap.cls_arrival
    ~aux:17 ~aux2:23 5;
  Event_heap.push q ~time:1.0 ~machine:0 ~cls:Event_heap.cls_fault 9;
  (* plain push zeroes the aux words *)
  checki "root aux zeroed by push" 0 (root_aux q);
  checki "root aux2 zeroed by push" 0 (root_aux2 q);
  checki "root payload" 9 (root_payload q);
  Event_heap.remove_min q;
  checki "aux survives sifting" 17 (root_aux q);
  checki "aux2 survives sifting" 23 (root_aux2 q);
  checki "payload survives sifting" 5 (root_payload q)

(* The engine's hot-loop push pattern — alloc, direct lane writes,
   sift_up — must be observationally the convenience [push]. *)
let alloc_pattern_is_push () =
  let seed = 1234 in
  let stream rng =
    Array.init 200 (fun k ->
        ( Rng.float_range rng ~lo:0.0 ~hi:4.0,
          Rng.int rng 5,
          Rng.int rng 4,
          k ))
  in
  let events = stream (Rng.create ~seed ()) in
  let via_push = Event_heap.create ~dummy:(-1) in
  let via_alloc = Event_heap.create ~dummy:(-1) in
  Array.iter
    (fun (time, machine, cls, payload) ->
      Event_heap.push via_push ~time ~machine ~cls payload;
      let s = Event_heap.alloc via_alloc in
      via_alloc.Event_heap.times.(s) <- time;
      via_alloc.Event_heap.machines.(s) <- machine;
      via_alloc.Event_heap.classes.(s) <- cls;
      via_alloc.Event_heap.payloads.(s) <- payload;
      Event_heap.sift_up via_alloc s)
    events;
  while not (Event_heap.is_empty via_push) do
    checki "same payload at the root" (root_payload via_push)
      (root_payload via_alloc);
    Event_heap.remove_min via_push;
    Event_heap.remove_min via_alloc
  done;
  checkb "both drained" true (Event_heap.is_empty via_alloc)

(* Ported from the Pqueue suite: a drained heap must not keep popped
   payloads reachable. The engine holds one heap for a whole run, so a
   leaked slot would pin event payloads for the run's lifetime; the
   [dummy] overwrite on [remove_min] is what prevents it. *)
let no_retention_after_drain () =
  let dummy = (-1, ref (-1)) in
  let q = Event_heap.create ~dummy in
  let n = 64 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let boxed = (i, ref i) in
    Weak.set weak i (Some boxed);
    Event_heap.push q ~time:(float_of_int (i mod 7)) ~machine:(i mod 3)
      ~cls:(i mod 4) boxed
  done;
  (* Grow, shrink and re-grow so vacated-slot aliasing is exercised. *)
  for _ = 1 to n / 2 do
    Event_heap.remove_min q
  done;
  for i = n to n + 7 do
    Event_heap.push q ~time:0.5 ~machine:0 ~cls:1 (i, ref i)
  done;
  while not (Event_heap.is_empty q) do
    Event_heap.remove_min q
  done;
  Gc.full_major ();
  let leaked = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr leaked
  done;
  checki "no payload survives a full drain" 0 !leaked;
  (* The heap stays usable, with capacity retained. *)
  Event_heap.push q ~time:1.0 ~machine:0 ~cls:0 (42, ref 42);
  checki "reusable" 42 (fst (root_payload q))

(* --------------------- equivalence with Pqueue ---------------------- *)

(* The refactor's ordering claim: under the engine's total event order
   (time, machine, cls, seq) — seq unique per push — the 4-ary SoA heap
   pops the same sequence as the old binary Pqueue, because the order is
   total and both are exact priority queues. Ties on (time, machine,
   cls) are forced by drawing from small value sets. *)
let stream_gen =
  QCheck.Gen.(
    let* len = int_range 0 120 in
    let* seed = int_bound 1_000_000 in
    return (len, seed))

let stream_scenario =
  QCheck.make
    ~print:(fun (len, seed) -> Printf.sprintf "len=%d seed=%d" len seed)
    stream_gen

let random_event rng k =
  {
    R_event.time = float_of_int (Rng.int rng 6) /. 2.0;
    machine = Rng.int rng 4 - 1;
    (* -1 is the streaming engine's virtual source machine *)
    cls = Rng.int rng 4;
    seq = k;
    payload = k;
  }

let prop_drain_matches_pqueue =
  QCheck.Test.make ~name:"drain pops the Pqueue/compare_event order"
    ~count:400 stream_scenario (fun (len, seed) ->
      let rng = Rng.create ~seed () in
      let events = Array.init len (random_event rng) in
      let heap = Event_heap.create ~dummy:(-1) in
      let pq = Pqueue.create ~compare:R_event.compare_event () in
      Array.iter
        (fun e ->
          Event_heap.push heap ~time:e.R_event.time
            ~machine:e.R_event.machine ~cls:e.R_event.cls
            e.R_event.payload;
          Pqueue.push pq e)
        events;
      let popped = ref [] in
      Helpers.drain heap ~handle:(fun ~time ~machine payload ->
          popped := (time, machine, payload) :: !popped);
      let expected =
        List.map
          (fun e ->
            (e.R_event.time, e.R_event.machine, e.R_event.payload))
          (Pqueue.drain pq)
      in
      List.rev !popped = expected)

(* Interleaved push/pop against the same model: handlers push while the
   queue drains in the engine, so equivalence on mixed histories — not
   just push-all-then-drain — is the property that matters. *)
let prop_interleaved_matches_pqueue =
  QCheck.Test.make ~name:"interleaved push/pop matches the Pqueue model"
    ~count:400 stream_scenario (fun (len, seed) ->
      let rng = Rng.create ~seed () in
      let heap = Event_heap.create ~dummy:(-1) in
      let pq = Pqueue.create ~compare:R_event.compare_event () in
      let next = ref 0 in
      let ok = ref true in
      for _ = 1 to len do
        if Rng.bernoulli rng ~p:0.6 || Event_heap.is_empty heap then begin
          let e = random_event rng !next in
          incr next;
          Event_heap.push heap ~time:e.R_event.time
            ~machine:e.R_event.machine ~cls:e.R_event.cls
            e.R_event.payload;
          Pqueue.push pq e
        end
        else begin
          let e = Pqueue.pop_exn pq in
          if
            root_time heap <> e.R_event.time
            || root_machine heap <> e.R_event.machine
            || root_cls heap <> e.R_event.cls
            || root_payload heap <> e.R_event.payload
          then ok := false;
          Event_heap.remove_min heap
        end
      done;
      !ok && Event_heap.length heap = Pqueue.length pq)

(* ------------------------------ suite ------------------------------- *)

let () =
  Alcotest.run "event_heap"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick empty_behaviour;
          Alcotest.test_case "aux lanes" `Quick aux_lanes_round_trip;
          Alcotest.test_case "alloc pattern = push" `Quick
            alloc_pattern_is_push;
          Alcotest.test_case "no retention" `Quick no_retention_after_drain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_drain_matches_pqueue; prop_interleaved_matches_pqueue ] );
    ]
