let env_override () =
  match Sys.getenv_opt "USCHED_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> Some v
      | Some _ | None -> None)

let recommended_domains () =
  match env_override () with
  | Some v -> v
  | None -> Stdlib.min 8 (Stdlib.max 1 (Domain.recommended_domain_count () - 1))

let parallel_init ~domains n f =
  if domains < 1 then invalid_arg "Pool.parallel_init: domains < 1";
  if n < 0 then invalid_arg "Pool.parallel_init: negative n";
  if n = 0 then [||]
  else if domains = 1 || n = 1 then Array.init n f
  else begin
    (* Element 0 is computed up front on the calling domain and doubles
       as the array's fill witness: the result lane is a plain
       ['a array] instead of an ['a option array], so no [Some] box is
       allocated per element and float results stay unboxed. Safe
       because every index in [1, n) is claimed by exactly one chunk
       and written before the joins complete. *)
    let first = f 0 in
    let results = Array.make n first in
    let error = Atomic.make None in
    let next = Atomic.make 1 in
    let chunk = Stdlib.max 1 (n / (domains * 4)) in
    let failed () =
      match Atomic.get error with Some _ -> true | None -> false
    in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n && not (failed ()) then begin
          let stop = Stdlib.min n (start + chunk) in
          (try
             for i = start to stop - 1 do
               results.(i) <- f i
             done
           with e ->
             (* Capture the backtrace with the exception so the re-raise
                below points at the worker's failure site, not here. *)
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set error None (Some (e, bt))));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (Stdlib.min domains n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join spawned;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    results
  end
