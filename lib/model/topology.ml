(* Machines partitioned into zones with a symmetric zone-by-zone
   bandwidth/latency matrix. Intra-zone transfers are free — the
   diagonal is pinned to (infinite bandwidth, zero latency) so every
   path lookup has a fast same-zone branch and the uniform (single-zone)
   topology is exactly the "transfers are free" model the rest of the
   system assumed before topologies existed. *)

type t = {
  zone_of : int array;  (* machine -> zone *)
  zones : int;
  bandwidth : float array array;  (* zone x zone, data units / time *)
  latency : float array array;  (* zone x zone, time units *)
}

let valid_bandwidth x = (not (Float.is_nan x)) && x > 0.0
let valid_latency x = Float.is_finite x && x >= 0.0

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* [check i] for [i] from [lo] to [hi - 1], stopping at the first error. *)
let rec each lo hi check =
  if lo >= hi then Ok ()
  else
    let* () = check lo in
    each (lo + 1) hi check

let check_matrix ~what ~zones ~diagonal ~valid ~describe matrix =
  if Array.length matrix <> zones then
    error "%s matrix has %d rows, need %d" what (Array.length matrix) zones
  else
    let* () =
      each 0 zones (fun r ->
          let row = matrix.(r) in
          if Array.length row <> zones then
            error "%s row %d has %d entries, need %d" what r (Array.length row)
              zones
          else
            each 0 zones (fun c ->
                let x = row.(c) in
                if r = c && x <> diagonal then
                  error "%s diagonal entry %d must be %g (got %g)" what r
                    diagonal x
                else if r <> c && not (valid x) then
                  error "%s[%d][%d] = %g must be %s" what r c x describe
                else Ok ()))
    in
    each 0 zones (fun r ->
        each (r + 1) zones (fun c ->
            if matrix.(r).(c) <> matrix.(c).(r) then
              error "%s matrix is not symmetric at [%d][%d]" what r c
            else Ok ()))

(* The zone count of a zone map whose ids run contiguously from 0 with
   no zone empty. Only ids below the machine count are marked: a larger
   id leaves some smaller zone empty, so the scan finds that one and the
   marks never need more than one slot per machine. *)
let zone_count zone_of =
  let m = Array.length zone_of in
  if m < 1 then error "need at least one machine"
  else
    let* () =
      each 0 m (fun i ->
          let z = zone_of.(i) in
          if z < 0 then error "machine %d has negative zone %d" i z else Ok ())
    in
    let top = Array.fold_left Stdlib.max (-1) zone_of in
    let seen = Array.make m false in
    Array.iter (fun z -> if z < m then seen.(z) <- true) zone_of;
    let* () =
      each 0 (if top < m then top + 1 else m) (fun z ->
          if seen.(z) then Ok ()
          else error "zone ids must be contiguous (zone %d is empty)" z)
    in
    Ok (top + 1)

(* [make]'s checks, with its messages less the "Topology.make: " prefix. *)
let build ~zone_of ~bandwidth ~latency =
  let* zones = zone_count zone_of in
  let* () =
    check_matrix ~what:"bandwidth" ~zones ~diagonal:infinity
      ~valid:valid_bandwidth ~describe:"> 0 (NaN rejected)" bandwidth
  in
  let* () =
    check_matrix ~what:"latency" ~zones ~diagonal:0.0 ~valid:valid_latency
      ~describe:"finite and >= 0" latency
  in
  Ok
    {
      zone_of = Array.copy zone_of;
      zones;
      bandwidth = Array.map Array.copy bandwidth;
      latency = Array.map Array.copy latency;
    }

let make ~zone_of ~bandwidth ~latency =
  match build ~zone_of ~bandwidth ~latency with
  | Ok t -> t
  | Error msg -> invalid_arg ("Topology.make: " ^ msg)

let uniform ~m =
  if m < 1 then invalid_arg "Topology.uniform: need at least one machine";
  {
    zone_of = Array.make m 0;
    zones = 1;
    bandwidth = [| [| infinity |] |];
    latency = [| [| 0.0 |] |];
  }

(* [zoned]'s checks, with its messages less the "Topology.zoned: " prefix. *)
let check_zoned ~m ~zones ~bandwidth ~latency =
  if m < 1 then error "need at least one machine"
  else if zones < 1 || zones > m then error "zones=%d outside [1, %d]" zones m
  else if not (valid_bandwidth bandwidth) then
    error "cross-zone bandwidth %g must be > 0 (NaN rejected)" bandwidth
  else if not (valid_latency latency) then
    error "cross-zone latency %g must be finite and >= 0" latency
  else Ok ()

let zoned ?(latency = 0.0) ~m ~zones ~bandwidth () =
  Result.iter_error
    (fun msg -> invalid_arg ("Topology.zoned: " ^ msg))
    (check_zoned ~m ~zones ~bandwidth ~latency);
  (* Same contiguous balanced split as the speed classes: machine i sits
     in zone i*zones/m, every zone nonempty for zones <= m. *)
  let zone_of = Array.init m (fun i -> i * zones / m) in
  let bw =
    Array.init zones (fun r ->
        Array.init zones (fun c -> if r = c then infinity else bandwidth))
  in
  let lat =
    Array.init zones (fun r ->
        Array.init zones (fun c -> if r = c then 0.0 else latency))
  in
  { zone_of; zones; bandwidth = bw; latency = lat }

let m t = Array.length t.zone_of
let zones t = t.zones
let zone t i = t.zone_of.(i)
let is_uniform t = t.zones = 1
let same_zone t i k = t.zone_of.(i) = t.zone_of.(k)

let zone_bandwidth t ~src ~dst =
  if src = dst then infinity else t.bandwidth.(src).(dst)

let zone_latency t ~src ~dst = if src = dst then 0.0 else t.latency.(src).(dst)

let path_bandwidth t ~src ~dst =
  zone_bandwidth t ~src:t.zone_of.(src) ~dst:t.zone_of.(dst)

let path_latency t ~src ~dst =
  zone_latency t ~src:t.zone_of.(src) ~dst:t.zone_of.(dst)

let zone_cost t ~src ~dst ~size =
  if src = dst then 0.0
  else t.latency.(src).(dst) +. (size /. t.bandwidth.(src).(dst))

let staging_time t ~src ~dst ~size =
  let zs = t.zone_of.(src) and zd = t.zone_of.(dst) in
  if zs = zd then 0.0 else t.latency.(zs).(zd) +. (size /. t.bandwidth.(zs).(zd))

(* [staging_time]'s expression, read from and stored into float arrays:
   across the [-opaque] boundary a float argument or result is boxed. *)
let staging_into t ~src ~dst ~sizes j cell =
  let zs = t.zone_of.(src) and zd = t.zone_of.(dst) in
  if zs = zd then cell.(0) <- 0.0
  else cell.(0) <- t.latency.(zs).(zd) +. (sizes.(j) /. t.bandwidth.(zs).(zd))

let matrix_str matrix =
  String.concat ":"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat ","
              (Array.to_list (Array.map Spec_text.float_to_string row)))
          matrix))

(* [ZONES|BWROWS|LATROWS]: zone ids comma-separated, matrix rows
   colon-separated with comma-separated entries. No spaces anywhere, so
   the value survives the space-split instance header. *)
let to_string t =
  Printf.sprintf "%s|%s|%s"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.zone_of)))
    (matrix_str t.bandwidth)
    (matrix_str t.latency)

let grammar =
  "uniform (one zone, free transfers), zones:Z:BW[:LAT] (Z contiguous equal \
   zones, cross-zone bandwidth BW > 0, cross-zone latency LAT >= 0, default \
   0), or a serialized ZONES|BWROWS|LATROWS topology"

let matrix what raw =
  Result.map
    (fun rows -> Array.of_list (List.map Array.of_list rows))
    (Spec_text.(read (List (':', List (',', Number)))) what raw)

let of_spec ~m:mm text =
  let number = Spec_text.(read Number) in
  Spec_text.with_grammar grammar
    (match String.split_on_char ':' text with
    | [ "uniform" ] -> Ok (uniform ~m:mm)
    | "zones" :: z :: bw :: ([] | [ _ ] as lat) ->
        let* zones = Spec_text.(read Int) "zone count" z in
        let* bandwidth = number "cross-zone bandwidth" bw in
        let* latency =
          match lat with [ l ] -> number "cross-zone latency" l | _ -> Ok 0.0
        in
        let* () = check_zoned ~m:mm ~zones ~bandwidth ~latency in
        Ok (zoned ~latency ~m:mm ~zones ~bandwidth ())
    | "zones" :: _ -> error "bad zones spec %S" text
    | _ -> (
        match String.split_on_char '|' text with
        | [ zones; bw; lat ] ->
            let* zone_of = Spec_text.(read (List (',', Nat))) "zone id" zones in
            if List.length zone_of <> mm then
              error "topology covers %d machines, instance has %d"
                (List.length zone_of) mm
            else
              let* bandwidth = matrix "bandwidth entry" bw in
              let* latency = matrix "latency entry" lat in
              build ~zone_of:(Array.of_list zone_of) ~bandwidth ~latency
        | _ -> error "bad topology %S" text))

let pp ppf t =
  if is_uniform t then Format.fprintf ppf "topology(uniform, m=%d)" (m t)
  else begin
    Format.fprintf ppf "topology(m=%d, zones=%d" (m t) t.zones;
    for r = 0 to t.zones - 1 do
      for c = r + 1 to t.zones - 1 do
        Format.fprintf ppf ", %d<->%d bw=%g lat=%g" r c t.bandwidth.(r).(c)
          t.latency.(r).(c)
      done
    done;
    Format.fprintf ppf ")"
  end
