type result = { value : float; partition : int array }

let optimum_two_point ~m ~alpha ~highs ~lows =
  if highs < 0 || lows < 0 then invalid_arg "Minimax: negative counts";
  let p =
    Array.append
      (Array.make highs alpha)
      (Array.make lows (1.0 /. alpha))
  in
  if Array.length p = 0 then 0.0 else Opt.makespan ~m p

(* Optima of the two-point realizations of [n] tasks, cached by the
   number of highs [h]: they depend only on (m, alpha, n, h), not on the
   partition, so one table serves every partition of [n]. *)
let optimum_table ~m ~alpha ~n =
  let cache = Hashtbl.create 16 in
  fun h ->
    match Hashtbl.find_opt cache h with
    | Some v -> v
    | None ->
        let v = optimum_two_point ~m ~alpha ~highs:h ~lows:(n - h) in
        Hashtbl.add cache h v;
        v

(* Adversary: pick a machine with b pinned tasks, inflate h of them and
   deflate everything else. *)
let value_with ~opt ~alpha counts =
  let distinct = List.sort_uniq Int.compare (Array.to_list counts) in
  List.fold_left
    (fun acc b ->
      if b = 0 then acc
      else begin
        let best_for_b = ref acc in
        for h = 0 to b do
          let load =
            (float_of_int h *. alpha)
            +. (float_of_int (b - h) /. alpha)
          in
          let ratio = load /. opt h in
          if ratio > !best_for_b then best_for_b := ratio
        done;
        !best_for_b
      end)
    1.0 distinct

let partition_value ~m ~alpha counts =
  if Array.length counts > m then invalid_arg "Minimax: more parts than machines";
  Array.iter (fun c -> if c < 0 then invalid_arg "Minimax: negative count") counts;
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then 1.0
  else value_with ~opt:(optimum_table ~m ~alpha ~n) ~alpha counts

let partitions ~n ~parts =
  (* Non-increasing positive parts, at most [parts] of them. *)
  let rec go remaining max_part slots =
    if remaining = 0 then [ [] ]
    else if slots = 0 then []
    else begin
      let upper = Stdlib.min remaining max_part in
      List.concat_map
        (fun part ->
          List.map (fun rest -> part :: rest)
            (go (remaining - part) part (slots - 1)))
        (List.init upper (fun i -> upper - i))
    end
  in
  go n n parts

let identical_minimax ~m ~n ~alpha =
  if m < 1 then invalid_arg "Minimax: m must be >= 1";
  if n < 0 then invalid_arg "Minimax: negative n";
  if alpha < 1.0 then invalid_arg "Minimax: alpha must be >= 1";
  if n = 0 then { value = 1.0; partition = Array.make m 0 }
  else begin
    let opt = optimum_table ~m ~alpha ~n in
    let best = ref { value = infinity; partition = [||] } in
    List.iter
      (fun parts ->
        let counts = Array.make m 0 in
        List.iteri (fun i c -> counts.(i) <- c) parts;
        let value = value_with ~opt ~alpha counts in
        if value < !best.value then best := { value; partition = counts })
      (partitions ~n ~parts:m);
    !best
  end
