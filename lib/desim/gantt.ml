(* A task fills its cells with the last digit of its id. *)
let label task = Char.chr (Char.code '0' + (task mod 10))

(* One machine's row: [tasks] in [Schedule.by_machine] order, later
   tasks overwriting earlier ones where they share a cell. *)
let track ~width ~scale schedule tasks =
  let row = Bytes.make width '.' in
  Array.iter
    (fun task ->
      let e = Schedule.entry schedule task in
      let first = int_of_float (e.Schedule.start *. scale) in
      let last = int_of_float (e.Schedule.finish *. scale) - 1 in
      let first = Stdlib.max 0 (Stdlib.min (width - 1) first) in
      let last = Stdlib.max first (Stdlib.min (width - 1) last) in
      for c = first to last do
        Bytes.set row c (label task)
      done)
    tasks;
  Bytes.to_string row

let render ?(width = 72) schedule =
  let buffer = Buffer.create 256 in
  let horizon = Schedule.makespan schedule in
  let scale = if horizon > 0.0 then float_of_int width /. horizon else 0.0 in
  Buffer.add_string buffer
    (Printf.sprintf "time 0 .. %g (makespan), %d machines\n" horizon
       (Schedule.m schedule));
  Array.iteri
    (fun i tasks ->
      Buffer.add_string buffer
        (Printf.sprintf "m%-3d |%s|\n" i (track ~width ~scale schedule tasks)))
    (Schedule.by_machine schedule);
  Buffer.contents buffer

let render_two ?(width = 36) ~left_title ~right_title left right =
  let buffer = Buffer.create 512 in
  let horizon = Float.max (Schedule.makespan left) (Schedule.makespan right) in
  let scale = if horizon > 0.0 then float_of_int width /. horizon else 0.0 in
  if Schedule.m left <> Schedule.m right then
    invalid_arg "Gantt.render_two: machine counts differ";
  Buffer.add_string buffer
    (Printf.sprintf "%-*s   %s\n" (width + 7) left_title right_title);
  Buffer.add_string buffer
    (Printf.sprintf "shared time scale 0 .. %g\n" horizon);
  let left_tasks = Schedule.by_machine left
  and right_tasks = Schedule.by_machine right in
  for i = 0 to Schedule.m left - 1 do
    Buffer.add_string buffer
      (Printf.sprintf "m%-3d |%s|   |%s|\n" i
         (track ~width ~scale left left_tasks.(i))
         (track ~width ~scale right right_tasks.(i)))
  done;
  Buffer.contents buffer
