(* Allocation-free 4-ary min-heap specialized to simulation events.

   Heap order lives in three position lanes: the time (an unboxed float
   lane), a packed rank that carries machine, class and sequence number
   in one int, and the slot index. Everything else an event carries sits
   in slot lanes that never move: two generic integer payload words
   ([aux]/[aux2] — the engine packs task ids and generation counters
   there so its per-event payloads can be constant constructors) and the
   polymorphic payload proper. A sift moves a hole and writes each entry
   it passes once, three lanes wide; the payload lane, whose every write
   is a [caml_modify], is written only when a slot is allocated or
   freed. Capacity is retained across drains.

   Ordering is the simulation contract verbatim: (time, machine, class,
   seq), with [seq] unique per push — a total order, so heap arity,
   internal layout and the moment a consumed root leaves cannot affect
   the pop sequence. The rank packs the last three keys as
   [((machine + 1) lsl 41) lor (cls lsl 39) lor seq]: the machine, from
   the virtual source [-1] up to [Instance.max_machines - 1], takes 21
   bits, the class 2 and the sequence number the remaining 39 of a
   non-negative int, so comparing ranks is comparing the three keys.

   The positions at and past [size] hold the free slots, so the slot
   lane is always a permutation of the slot indices: a push takes the
   slot waiting at position [size], and a removal leaves the root's slot
   at the position the heap gave up.

   Consumed root. [next] reads the root's slot and marks the root
   consumed instead of removing it. The next push then replaces the root
   with one sift-down, which is what an event handler's first push
   does; if nothing is pushed, the next [next] removes the root. *)

let cls_fault = 0
let cls_arrival = 1
let cls_decision = 2
let cls_audit = 3

let machine_shift = 41
let cls_shift = 39

type 'a t = {
  dummy : 'a;
  mutable size : int;
  mutable consumed : bool;
  mutable next_seq : int;
  mutable times : float array;
  mutable ranks : int array;
  mutable slots : int array;
  mutable aux : int array;
  mutable aux2 : int array;
  mutable payloads : 'a array;
}

let create ~dummy =
  let capacity = 16 in
  {
    dummy;
    size = 0;
    consumed = false;
    next_seq = 0;
    times = Array.make capacity 0.0;
    ranks = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    aux = Array.make capacity 0;
    aux2 = Array.make capacity 0;
    payloads = Array.make capacity dummy;
  }

let length t = if t.consumed then t.size - 1 else t.size
let root_machine t = (t.ranks.(0) lsr machine_shift) - 1

let grow t =
  let old = Array.length t.times in
  let capacity = 2 * old in
  let times = Array.make capacity 0.0 in
  Array.blit t.times 0 times 0 old;
  t.times <- times;
  let ranks = Array.make capacity 0 in
  Array.blit t.ranks 0 ranks 0 old;
  t.ranks <- ranks;
  let slots = Array.init capacity Fun.id in
  Array.blit t.slots 0 slots 0 old;
  t.slots <- slots;
  let aux = Array.make capacity 0 in
  Array.blit t.aux 0 aux 0 old;
  t.aux <- aux;
  let aux2 = Array.make capacity 0 in
  Array.blit t.aux2 0 aux2 0 old;
  t.aux2 <- aux2;
  let payloads = Array.make capacity t.dummy in
  Array.blit t.payloads 0 payloads 0 old;
  t.payloads <- payloads

(* Strictly before, between position [a] and the entry (time, rank). The
   times are never NaN (the engine validates its inputs), so not [<]
   and not [>] means equal. The annotations keep the compares
   monomorphic. *)
let[@inline] before (times : float array) (ranks : int array) a (time : float) (rank : int) =
  let ta = times.(a) in
  ta < time || ((not (ta > time)) && ranks.(a) < rank)

(* [before] between two positions. *)
let[@inline] before_at (times : float array) (ranks : int array) a b =
  let ta = times.(a) and tb = times.(b) in
  ta < tb || ((not (ta > tb)) && ranks.(a) < ranks.(b))

(* Places the entry whose time is [times.(size)] (a position outside the
   heap), with [rank] and [slot], from the hole at the root down. *)
let sift_down t rank slot =
  let times = t.times and ranks = t.ranks and slots = t.slots in
  let size = t.size in
  let time = times.(size) in
  let hole = ref 0 and moving = ref true in
  while !moving do
    let c = (4 * !hole) + 1 in
    if c >= size then moving := false
    else begin
      let b = ref c in
      if c + 3 < size then begin
        if before_at times ranks (c + 1) !b then b := c + 1;
        if before_at times ranks (c + 2) !b then b := c + 2;
        if before_at times ranks (c + 3) !b then b := c + 3
      end
      else
        for k = c + 1 to size - 1 do
          if before_at times ranks k !b then b := k
        done;
      let b = !b in
      if before times ranks b time rank then begin
        let h = !hole in
        times.(h) <- times.(b);
        ranks.(h) <- ranks.(b);
        slots.(h) <- slots.(b);
        hole := b
      end
      else moving := false
    end
  done;
  let h = !hole in
  times.(h) <- time;
  ranks.(h) <- rank;
  slots.(h) <- slot

(* Places the entry at position [size] (time already there) from that
   hole up, and counts it in. *)
let sift_up t rank slot =
  let times = t.times and ranks = t.ranks and slots = t.slots in
  let size = t.size in
  let time = times.(size) in
  let hole = ref size and moving = ref true in
  while !moving && !hole > 0 do
    let p = (!hole - 1) lsr 2 in
    (* The parent goes after the entry: [seq] is unique, so not-before
       is after. *)
    if before times ranks p time rank then moving := false
    else begin
      let h = !hole in
      times.(h) <- times.(p);
      ranks.(h) <- ranks.(p);
      slots.(h) <- slots.(p);
      hole := p
    end
  done;
  let h = !hole in
  times.(h) <- time;
  ranks.(h) <- rank;
  slots.(h) <- slot;
  t.size <- size + 1

(* Slot [r] leaves the heap: its payload no longer stays reachable. *)
let free t r = if t.payloads.(r) != t.dummy then t.payloads.(r) <- t.dummy

let alloc t =
  if t.size = Array.length t.times then grow t;
  let s = t.slots.(t.size) in
  t.aux.(s) <- 0;
  t.aux2.(s) <- 0;
  s

let insert t s ~machine ~cls =
  let seq = t.next_seq in
  if ((machine + 1) lsr 21) lor (cls lsr 2) lor (seq lsr cls_shift) <> 0 then
    invalid_arg "Event_heap.insert: machine, class or sequence number out of range";
  t.next_seq <- seq + 1;
  let rank = ((machine + 1) lsl machine_shift) lor (cls lsl cls_shift) lor seq in
  if t.consumed then begin
    (* Replace the consumed root: the new entry sinks from the root, and
       the root's slot joins the free ones at position [size]. *)
    let r = t.slots.(0) in
    t.consumed <- false;
    sift_down t rank s;
    t.slots.(t.size) <- r;
    free t r
  end
  else sift_up t rank s

let push_aux t ~time ~machine ~cls ~aux ~aux2 payload =
  let s = alloc t in
  t.times.(t.size) <- time;
  t.aux.(s) <- aux;
  t.aux2.(s) <- aux2;
  t.payloads.(s) <- payload;
  insert t s ~machine ~cls

let push t ~time ~machine ~cls payload = push_aux t ~time ~machine ~cls ~aux:0 ~aux2:0 payload

(* Remove the consumed root: the last entry sinks from the root, and the
   root's slot takes the position the heap gives up. *)
let remove_root t =
  let r = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.consumed <- false;
  if last > 0 then begin
    sift_down t t.ranks.(last) t.slots.(last);
    t.slots.(last) <- r
  end;
  free t r

let next t =
  if t.consumed then remove_root t;
  if t.size = 0 then -1
  else begin
    t.consumed <- true;
    t.slots.(0)
  end
