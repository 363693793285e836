(* Allocation-free 4-ary min-heap specialized to simulation events.

   The old binary-heap event loop paid for itself three times over
   on hot paths: every pop boxed its result in an [option], every event
   was a 7-word record (with the timestamp boxed on top), and a full
   drain dropped the backing store so the next run re-grew it from
   scratch. This heap keeps each event as one slot across parallel
   lanes (struct-of-arrays): the float lane stores timestamps unboxed,
   the int lanes carry machine/class/sequence plus two generic integer
   payload words ([aux]/[aux2] — the engine packs task ids and
   generation counters there so its per-event payloads can be constant
   constructors), and the polymorphic lane holds the payload proper.
   Push and pop are plain array writes plus int/float compares: no
   allocation once capacity is reached, and capacity is retained across
   drains.

   Ordering is the simulation contract verbatim: (time, machine, class,
   seq), with [seq] unique per push — a total order, so heap arity and
   internal layout cannot affect the pop sequence. Arity 4 keeps the
   tree shallow (one level fewer than binary at typical queue depths)
   while sift-down still touches a single cache line of each lane.

   Popped payload slots are overwritten with [dummy] so a drained heap
   retains nothing (a weak-pointer test pins this). *)

let cls_fault = 0
let cls_arrival = 1
let cls_decision = 2
let cls_audit = 3

type 'a t = {
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
  mutable times : float array;
  mutable machines : int array;
  mutable classes : int array;
  mutable seqs : int array;
  mutable aux : int array;
  mutable aux2 : int array;
  mutable payloads : 'a array;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = Stdlib.max 1 capacity in
  {
    dummy;
    size = 0;
    next_seq = 0;
    times = Array.make capacity 0.0;
    machines = Array.make capacity 0;
    classes = Array.make capacity 0;
    seqs = Array.make capacity 0;
    aux = Array.make capacity 0;
    aux2 = Array.make capacity 0;
    payloads = Array.make capacity dummy;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Strict (time, machine, class, seq) order between two slots. [seq] is
   unique, so the result is never a tie. *)
let[@inline] lt t a b =
  let ta = t.times.(a) and tb = t.times.(b) in
  if ta < tb then true
  else if ta > tb then false
  else
    (* Equal times — NaN never reaches the heap (the engine validates
       its inputs), so [not (<) && not (>)] means equality here. *)
    let d = t.machines.(a) - t.machines.(b) in
    if d <> 0 then d < 0
    else
      let d = t.classes.(a) - t.classes.(b) in
      if d <> 0 then d < 0 else t.seqs.(a) < t.seqs.(b)

let swap t a b =
  let f = t.times.(a) in
  t.times.(a) <- t.times.(b);
  t.times.(b) <- f;
  let x = t.machines.(a) in
  t.machines.(a) <- t.machines.(b);
  t.machines.(b) <- x;
  let x = t.classes.(a) in
  t.classes.(a) <- t.classes.(b);
  t.classes.(b) <- x;
  let x = t.seqs.(a) in
  t.seqs.(a) <- t.seqs.(b);
  t.seqs.(b) <- x;
  let x = t.aux.(a) in
  t.aux.(a) <- t.aux.(b);
  t.aux.(b) <- x;
  let x = t.aux2.(a) in
  t.aux2.(a) <- t.aux2.(b);
  t.aux2.(b) <- x;
  let p = t.payloads.(a) in
  t.payloads.(a) <- t.payloads.(b);
  t.payloads.(b) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let c0 = (4 * i) + 1 in
  if c0 < t.size then begin
    let b = c0 in
    let b = if c0 + 1 < t.size && lt t (c0 + 1) b then c0 + 1 else b in
    let b = if c0 + 2 < t.size && lt t (c0 + 2) b then c0 + 2 else b in
    let b = if c0 + 3 < t.size && lt t (c0 + 3) b then c0 + 3 else b in
    if lt t b i then begin
      swap t b i;
      sift_down t b
    end
  end

let grow t =
  let capacity = 2 * Array.length t.times in
  let times = Array.make capacity 0.0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let machines = Array.make capacity 0 in
  Array.blit t.machines 0 machines 0 t.size;
  t.machines <- machines;
  let classes = Array.make capacity 0 in
  Array.blit t.classes 0 classes 0 t.size;
  t.classes <- classes;
  let seqs = Array.make capacity 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let aux = Array.make capacity 0 in
  Array.blit t.aux 0 aux 0 t.size;
  t.aux <- aux;
  let aux2 = Array.make capacity 0 in
  Array.blit t.aux2 0 aux2 0 t.size;
  t.aux2 <- aux2;
  let payloads = Array.make capacity t.dummy in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.payloads <- payloads

(* Reserve the next slot: bumps [size], assigns the sequence number, and
   clears [aux]/[aux2]/[payloads] to their defaults. The caller writes
   the remaining lanes directly and then calls {!sift_up} on the
   returned slot — the pattern the engine uses to push without passing a
   boxed float argument through a function call. *)
let alloc t =
  if t.size = Array.length t.times then grow t;
  let s = t.size in
  t.size <- s + 1;
  t.next_seq <- t.next_seq + 1;
  t.seqs.(s) <- t.next_seq;
  t.aux.(s) <- 0;
  t.aux2.(s) <- 0;
  t.payloads.(s) <- t.dummy;
  s

let push t ~time ~machine ~cls payload =
  let s = alloc t in
  t.times.(s) <- time;
  t.machines.(s) <- machine;
  t.classes.(s) <- cls;
  t.payloads.(s) <- payload;
  sift_up t s

let push_aux t ~time ~machine ~cls ~aux ~aux2 payload =
  let s = alloc t in
  t.times.(s) <- time;
  t.machines.(s) <- machine;
  t.classes.(s) <- cls;
  t.aux.(s) <- aux;
  t.aux2.(s) <- aux2;
  t.payloads.(s) <- payload;
  sift_up t s

(* Remove the root. The vacated slot (and the root slot of a drained
   heap) is reset to [dummy] so no popped payload stays reachable;
   capacity is retained for the next push. *)
let remove_min t =
  if t.size = 0 then invalid_arg "Event_heap.remove_min: empty heap";
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.machines.(0) <- t.machines.(last);
    t.classes.(0) <- t.classes.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.aux.(0) <- t.aux.(last);
    t.aux2.(0) <- t.aux2.(last);
    t.payloads.(0) <- t.payloads.(last);
    t.payloads.(last) <- t.dummy;
    sift_down t 0
  end
  else t.payloads.(0) <- t.dummy
