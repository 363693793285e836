let cls_fault = 0
let cls_arrival = 1
let cls_decision = 2
let cls_audit = 3

(* Total order on simultaneous events: time, then machine id, then
   class, then insertion order. This is THE tie-break rule of the
   simulation — every determinism statement in the engine docs reduces
   to this order plus [Dispatch.redispatch_order]. The heap implements
   it natively over its lanes ([Event_heap.lt]). *)
type 'a t = 'a Event_heap.t

let create ?capacity ~dummy () = Event_heap.create ?capacity ~dummy ()
let push t ~time ~machine ~cls payload = Event_heap.push t ~time ~machine ~cls payload

let push_aux t ~time ~machine ~cls ~aux ~aux2 payload =
  Event_heap.push_aux t ~time ~machine ~cls ~aux ~aux2 payload

let length = Event_heap.length
