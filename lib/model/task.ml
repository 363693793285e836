type t = { id : int; est : float; size : float }

let make ~id ~est ?(size = 1.0) () =
  if id < 0 then invalid_arg "Task.make: negative id";
  if not (est > 0.0) then invalid_arg "Task.make: estimate must be > 0";
  if est = Float.infinity then invalid_arg "Task.make: estimate must be finite";
  if size < 0.0 then invalid_arg "Task.make: negative size";
  if not (Float.is_finite size) then invalid_arg "Task.make: size must be finite";
  { id; est; size }

let id t = t.id
let est t = t.est
let size t = t.size
