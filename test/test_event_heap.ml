(* The 4-ary event heap under the desim engine: unit behaviour,
   equivalence with the binary [Pqueue] under the engine's total event
   order (arity, layout and the consumed root's replace-top cannot
   change the pop sequence), the alloc/insert direct-lane push pattern,
   the packed rank's boundaries, and the no-retention-after-drain
   guarantee ported from the Pqueue suite. The record-form events and
   their comparator are the frozen reference engine's
   ([Reference_engine.R_event]). *)

module Event_heap = Usched_desim.Event_heap
module Instance = Usched_model.Instance
module Rng = Usched_prng.Rng
module R_event = Reference_engine.R_event

(* The root's lanes: position 0 of the position lanes, its slot of the
   slot lanes. The class is the rank's bits 39-40. *)
let root_time q = q.Event_heap.times.(0)
let root_machine q = Event_heap.root_machine q
let root_cls q = (q.Event_heap.ranks.(0) lsr 39) land 3
let root_slot q = q.Event_heap.slots.(0)
let root_aux q = q.Event_heap.aux.(root_slot q)
let root_aux2 q = q.Event_heap.aux2.(root_slot q)
let root_payload q = q.Event_heap.payloads.(root_slot q)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------ unit -------------------------------- *)

let empty_behaviour () =
  let q = Event_heap.create ~dummy:(-1) in
  checkb "empty" true (Event_heap.length q = 0);
  checki "length 0" 0 (Event_heap.length q);
  checki "next on empty" (-1) (Event_heap.next q);
  Event_heap.push q ~time:1.0 ~machine:0 ~cls:Event_heap.cls_fault 7;
  checki "length 1" 1 (Event_heap.length q);
  let s = Event_heap.next q in
  checki "consumed root's payload" 7 q.Event_heap.payloads.(s);
  checkb "a consumed root does not count" true (Event_heap.length q = 0);
  checki "drained" (-1) (Event_heap.next q);
  checki "still drained" (-1) (Event_heap.next q)

let aux_lanes_round_trip () =
  let q = Event_heap.create ~dummy:(-1) in
  Event_heap.push_aux q ~time:2.0 ~machine:1 ~cls:Event_heap.cls_arrival
    ~aux:17 ~aux2:23 5;
  Event_heap.push q ~time:1.0 ~machine:0 ~cls:Event_heap.cls_fault 9;
  (* plain push zeroes the aux words *)
  checki "root aux zeroed by push" 0 (root_aux q);
  checki "root aux2 zeroed by push" 0 (root_aux2 q);
  checki "root payload" 9 (root_payload q);
  ignore (Event_heap.next q);
  let s = Event_heap.next q in
  checki "aux survives sifting" 17 q.Event_heap.aux.(s);
  checki "aux2 survives sifting" 23 q.Event_heap.aux2.(s);
  checki "payload survives sifting" 5 q.Event_heap.payloads.(s);
  checki "machine survives sifting" 1 (root_machine q);
  checki "class survives sifting" Event_heap.cls_arrival (root_cls q)

(* The engine's hot-loop push pattern — alloc, direct lane writes,
   insert — must be observationally the convenience [push]. *)
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
      via_alloc.Event_heap.times.(via_alloc.Event_heap.size) <- time;
      via_alloc.Event_heap.payloads.(s) <- payload;
      Event_heap.insert via_alloc s ~machine ~cls)
    events;
  let a = ref (Event_heap.next via_push) and b = ref (Event_heap.next via_alloc) in
  while !a >= 0 do
    checki "same payload at the root" via_push.Event_heap.payloads.(!a)
      via_alloc.Event_heap.payloads.(!b);
    a := Event_heap.next via_push;
    b := Event_heap.next via_alloc
  done;
  checki "both drained" (-1) !b

(* The rank packs machine + 1 into 21 bits, the class into 2 and the
   sequence number into 39: the extreme machines sort below and above
   each other in every class, and anything outside the budget is
   refused rather than wrapped into another event's order. *)
let rank_boundaries () =
  let q = Event_heap.create ~dummy:(-1) in
  let top = Instance.max_machines - 1 in
  (* Pushed in reverse order, all at one instant. *)
  List.iter
    (fun (machine, cls) ->
      Event_heap.push q ~time:1.0 ~machine ~cls ((100 * (machine + 1)) + cls))
    [ (top, 3); (top, 2); (top, 1); (top, 0); (-1, 3); (-1, 2); (-1, 1); (-1, 0) ];
  let popped = ref [] in
  Helpers.drain q ~handle:(fun ~time:_ ~machine payload ->
      popped := (machine, payload) :: !popped);
  Alcotest.(check (list (pair int int)))
    "machine -1 first, then by class"
    [
      (-1, 0); (-1, 1); (-1, 2); (-1, 3);
      (top, (100 * (top + 1)) + 0); (top, (100 * (top + 1)) + 1);
      (top, (100 * (top + 1)) + 2); (top, (100 * (top + 1)) + 3);
    ]
    (List.rev !popped);
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "machine -2" (fun () -> Event_heap.push q ~time:0.0 ~machine:(-2) ~cls:0 0);
  refused "machine 2^21 - 1" (fun () ->
      Event_heap.push q ~time:0.0 ~machine:((1 lsl 21) - 1) ~cls:0 0);
  refused "class 4" (fun () -> Event_heap.push q ~time:0.0 ~machine:0 ~cls:4 0);
  refused "class -1" (fun () -> Event_heap.push q ~time:0.0 ~machine:0 ~cls:(-1) 0);
  checkb "refusals push nothing" true (Event_heap.length q = 0);
  (* The last sequence number is accepted and still orders last. *)
  q.Event_heap.next_seq <- (1 lsl 39) - 2;
  Event_heap.push q ~time:0.0 ~machine:top ~cls:3 1;
  Event_heap.push q ~time:0.0 ~machine:top ~cls:3 2;
  refused "sequence number 2^39" (fun () ->
      Event_heap.push q ~time:0.0 ~machine:0 ~cls:0 3);
  checki "two events" 2 (Event_heap.length q);
  ignore (Event_heap.next q);
  checki "first seq pops first" 1 (root_payload q);
  ignore (Event_heap.next q);
  checki "last seq pops last" 2 (root_payload q)

(* Ported from the Pqueue suite: a drained heap must not keep popped
   payloads reachable. The engine holds one heap for a whole run, so a
   leaked slot would pin event payloads for the run's lifetime; freeing
   a slot (a removed or replaced root) resets its payload to [dummy]. *)
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
  (* Grow, shrink and re-grow, through consumed roots replaced by a
     push, so vacated-slot aliasing is exercised. *)
  for _ = 1 to n / 2 do
    ignore (Event_heap.next q)
  done;
  for i = n to n + 7 do
    Event_heap.push q ~time:0.5 ~machine:0 ~cls:1 (i, ref i);
    ignore (Event_heap.next q)
  done;
  while Event_heap.next q >= 0 do
    ()
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
        if Rng.bernoulli rng ~p:0.6 || Event_heap.length heap = 0 then begin
          let e = random_event rng !next in
          incr next;
          Event_heap.push heap ~time:e.R_event.time
            ~machine:e.R_event.machine ~cls:e.R_event.cls
            e.R_event.payload;
          Pqueue.push pq e
        end
        else begin
          let e = Pqueue.pop_exn pq in
          ignore (Event_heap.next heap);
          if
            root_time heap <> e.R_event.time
            || root_machine heap <> e.R_event.machine
            || root_cls heap <> e.R_event.cls
            || root_payload heap <> e.R_event.payload
          then ok := false
        end
      done;
      !ok && Event_heap.length heap = Pqueue.length pq)

(* The engine's loop: [next] consumes the root, the handler pushes 0, 1
   or several events (the first replaces the consumed root), and the
   following [next] settles the root when nothing did. Every pop must
   be the model's, and the depth must match the model's after every
   push. Times, machines and classes come from small sets, so equal
   times across machines and classes are common. *)
let prop_handler_pushes_match_pqueue =
  QCheck.Test.make ~name:"consume, handler pushes, settle matches the Pqueue model"
    ~count:400 stream_scenario (fun (len, seed) ->
      let rng = Rng.create ~seed () in
      let heap = Event_heap.create ~dummy:(-1) in
      let pq = Pqueue.create ~compare:R_event.compare_event () in
      let pushed = ref 0 in
      let push () =
        let e = random_event rng !pushed in
        incr pushed;
        Event_heap.push heap ~time:e.R_event.time ~machine:e.R_event.machine
          ~cls:e.R_event.cls e.R_event.payload;
        Pqueue.push pq e;
        Event_heap.length heap = Pqueue.length pq
      in
      let ok = ref true in
      for _ = 1 to 1 + Rng.int rng 4 do
        ok := push () && !ok
      done;
      let slot = ref (Event_heap.next heap) in
      while !slot >= 0 do
        let e = Pqueue.pop_exn pq in
        if
          root_time heap <> e.R_event.time
          || root_machine heap <> e.R_event.machine
          || root_cls heap <> e.R_event.cls
          || heap.Event_heap.payloads.(!slot) <> e.R_event.payload
          || Event_heap.length heap <> Pqueue.length pq
        then ok := false;
        (* Handlers push while the budget lasts: none, one or several. *)
        if !pushed < len then
          for _ = 1 to Rng.int rng 4 do
            ok := push () && !ok
          done;
        slot := Event_heap.next heap
      done;
      !ok && Pqueue.length pq = 0)

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
          Alcotest.test_case "rank boundaries" `Quick rank_boundaries;
          Alcotest.test_case "no retention" `Quick no_retention_after_drain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_drain_matches_pqueue;
            prop_interleaved_matches_pqueue;
            prop_handler_pushes_match_pqueue;
          ] );
    ]
