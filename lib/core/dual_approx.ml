(* ------------------------------------------------------------------ *)
(* The dual test at a fixed target t.                                  *)
(* ------------------------------------------------------------------ *)

(* Pack the big jobs (rounded to size classes) into at most [m] bins of
   capacity [t] with a memoized minimum-bin search. Returns the list of
   bins, each a list of class indices, or None if more than [m] bins are
   needed. *)
let pack_big_classes ~m ~t ~class_sizes counts =
  let n_classes = Array.length class_sizes in
  let key state = String.concat "," (List.map string_of_int (Array.to_list state)) in
  (* memo: state -> (bins needed, config used for the first bin) *)
  let memo : (string, int * int array option) Hashtbl.t = Hashtbl.create 256 in
  let eps_cap = 1e-9 *. t in
  (* Budget on distinct states: beyond it the test gives up and reports
     infeasible, degrading the overall guarantee gracefully toward the
     LPT incumbent instead of hanging on adversarial inputs. *)
  let state_budget = 200_000 in
  let exception Budget in
  let rec min_bins state =
    if Array.for_all (fun c -> c = 0) state then (0, None)
    else begin
      let k = key state in
      match Hashtbl.find_opt memo k with
      | Some cached -> cached
      | None ->
          let best = ref (max_int, None) in
          let config = Array.make n_classes 0 in
          (* DFS over one bin's content, classes in increasing index to
             avoid permutations; [from] is the smallest class allowed. *)
          let rec fill from capacity any_added =
            (* Maximality pruning: only recurse on the remainder when no
               further item fits (a fuller bin never increases the
               optimal bin count, by monotonicity of min_bins). *)
            let can_extend = ref false in
            for c = from to n_classes - 1 do
              if state.(c) - config.(c) > 0 && class_sizes.(c) <= capacity +. eps_cap
              then can_extend := true
            done;
            if (not !can_extend) && any_added then begin
              let remaining =
                Array.init n_classes (fun c -> state.(c) - config.(c))
              in
              let sub, _ = min_bins remaining in
              if sub <> max_int && sub + 1 < fst !best then
                best := (sub + 1, Some (Array.copy config))
            end
            else
              for c = from to n_classes - 1 do
                if state.(c) - config.(c) > 0
                   && class_sizes.(c) <= capacity +. eps_cap
                then begin
                  config.(c) <- config.(c) + 1;
                  fill c (capacity -. class_sizes.(c)) true;
                  config.(c) <- config.(c) - 1
                end
              done
          in
          fill 0 t false;
          (* Bound the search: more bins than m is as good as failure. *)
          let result = if fst !best > m then (max_int, None) else !best in
          if Hashtbl.length memo >= state_budget then raise Budget;
          Hashtbl.add memo k result;
          result
    end
  in
  let initial = Array.copy counts in
  let bins_needed, _ = try min_bins initial with Budget -> (max_int, None) in
  if bins_needed = max_int || bins_needed > m then None
  else begin
    (* Reconstruct bin contents by following the memoized choices. *)
    let bins = ref [] in
    let state = Array.copy counts in
    let continue = ref (not (Array.for_all (fun c -> c = 0) state)) in
    while !continue do
      match min_bins (Array.copy state) with
      | _, Some config ->
          bins := config :: !bins;
          Array.iteri (fun c used -> state.(c) <- state.(c) - used) config;
          if Array.for_all (fun c -> c = 0) state then continue := false
      | _, None -> continue := false
    done;
    Some !bins
  end

let feasible_at ~epsilon ~t ~m p =
  let n = Array.length p in
  if Array.exists (fun x -> x > t *. (1.0 +. 1e-12)) p then None
  else begin
    let threshold = epsilon *. t in
    let quantum = epsilon *. epsilon *. t in
    let big = ref [] and small = ref [] in
    Array.iteri
      (fun j x -> if x > threshold then big := j :: !big else small := j :: !small)
      p;
    let big = Array.of_list (List.rev !big) in
    (* Class of a big job: floor(p / quantum); its rounded size is
       class * quantum <= p. Map classes to a dense index range. *)
    let class_of j = int_of_float (floor (p.(j) /. quantum)) in
    let class_table = Hashtbl.create 32 in
    Array.iter
      (fun j ->
        let c = class_of j in
        let members =
          match Hashtbl.find_opt class_table c with Some l -> l | None -> []
        in
        Hashtbl.replace class_table c (j :: members))
      big;
    let classes =
      List.sort Int.compare
        (Hashtbl.fold (fun c _ acc -> c :: acc) class_table [])
    in
    let class_sizes =
      Array.of_list (List.map (fun c -> float_of_int c *. quantum) classes)
    in
    let counts =
      Array.of_list
        (List.map (fun c -> List.length (Hashtbl.find class_table c)) classes)
    in
    let members =
      Array.of_list (List.map (fun c -> ref (Hashtbl.find class_table c)) classes)
    in
    match
      if Array.length big = 0 then Some []
      else pack_big_classes ~m ~t ~class_sizes counts
    with
    | None -> None
    | Some bins ->
        let assignment = Array.make n 0 in
        let loads = Array.make m 0.0 in
        List.iteri
          (fun machine config ->
            Array.iteri
              (fun c used ->
                for _ = 1 to used do
                  match !(members.(c)) with
                  | j :: rest ->
                      members.(c) := rest;
                      assignment.(j) <- machine;
                      loads.(machine) <- loads.(machine) +. p.(j)
                  | [] -> assert false
                done)
              config)
          bins;
        (* Greedily place small jobs on any machine still below t; if no
           machine is below t while jobs remain, total work exceeds m*t,
           certifying OPT > t. *)
        let exception Overfull in
        (try
           List.iter
             (fun j ->
               (* Least-loaded machine keeps the final loads balanced. *)
               let target_machine = ref (-1) in
               for i = 0 to m - 1 do
                 if loads.(i) < t
                    && (!target_machine < 0
                       || loads.(i) < loads.(!target_machine))
                 then target_machine := i
               done;
               if !target_machine < 0 then raise Overfull;
               assignment.(j) <- !target_machine;
               loads.(!target_machine) <- loads.(!target_machine) +. p.(j))
             (List.rev !small);
           ()
         with Overfull -> raise Not_found);
        Some { Assign.assignment; loads }
  end

let feasible_at ~epsilon ~t ~m p =
  try feasible_at ~epsilon ~t ~m p with Not_found -> None

(* ------------------------------------------------------------------ *)
(* Binary search over targets.                                        *)
(* ------------------------------------------------------------------ *)

let schedule ?(epsilon = 1.0 /. 3.0) ~m p =
  if m < 1 then invalid_arg "Dual_approx: m must be >= 1";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Dual_approx: negative time") p;
  if not (epsilon > 0.0 && epsilon <= 1.0) then
    invalid_arg "Dual_approx: epsilon must be in (0, 1]";
  if Array.length p = 0 then { Assign.assignment = [||]; loads = Array.make m 0.0 }
  else begin
    let lpt = Assign.lpt ~m ~weights:p in
    let lo = ref (Float.max 1e-300 (Lower_bounds.best ~m p)) in
    let hi = ref (Assign.makespan lpt) in
    (* The LPT makespan is always a feasible target (LPT witnesses it).
       Keep whichever feasible assignment has the smallest realized
       makespan — a successful probe guarantees only (1+eps)*t, which
       near the end of the search can exceed an earlier incumbent. *)
    let best = ref lpt in
    let consider assignment =
      if Assign.makespan assignment < Assign.makespan !best then best := assignment
    in
    for _ = 1 to 40 do
      let t = 0.5 *. (!lo +. !hi) in
      match feasible_at ~epsilon ~t ~m p with
      | Some assignment ->
          consider assignment;
          hi := t
      | None -> lo := t
    done;
    !best
  end

let makespan ?epsilon ~m p = Assign.makespan (schedule ?epsilon ~m p)
