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

let bad fmt = Format.kasprintf invalid_arg fmt

let valid_bandwidth x = (not (Float.is_nan x)) && x > 0.0
let valid_latency x = Float.is_finite x && x >= 0.0

let check_matrix ~what ~zones ~diagonal ~valid ~describe matrix =
  if Array.length matrix <> zones then
    bad "Topology.make: %s matrix has %d rows, need %d" what
      (Array.length matrix) zones;
  Array.iteri
    (fun r row ->
      if Array.length row <> zones then
        bad "Topology.make: %s row %d has %d entries, need %d" what r
          (Array.length row) zones;
      Array.iteri
        (fun c x ->
          if r = c then begin
            if x <> diagonal then
              bad "Topology.make: %s diagonal entry %d must be %g (got %g)"
                what r diagonal x
          end
          else if not (valid x) then
            bad "Topology.make: %s[%d][%d] = %g must be %s" what r c x describe)
        row)
    matrix;
  for r = 0 to zones - 1 do
    for c = r + 1 to zones - 1 do
      if matrix.(r).(c) <> matrix.(c).(r) then
        bad "Topology.make: %s matrix is not symmetric at [%d][%d]" what r c
    done
  done

let make ~zone_of ~bandwidth ~latency =
  let m = Array.length zone_of in
  if m < 1 then bad "Topology.make: need at least one machine";
  let zones = 1 + Array.fold_left Stdlib.max (-1) zone_of in
  Array.iteri
    (fun i z ->
      if z < 0 then bad "Topology.make: machine %d has negative zone %d" i z)
    zone_of;
  let seen = Array.make zones false in
  Array.iter (fun z -> seen.(z) <- true) zone_of;
  Array.iteri
    (fun z occupied ->
      if not occupied then
        bad "Topology.make: zone ids must be contiguous (zone %d is empty)" z)
    seen;
  check_matrix ~what:"bandwidth" ~zones ~diagonal:infinity
    ~valid:valid_bandwidth ~describe:"> 0 (NaN rejected)" bandwidth;
  check_matrix ~what:"latency" ~zones ~diagonal:0.0 ~valid:valid_latency
    ~describe:"finite and >= 0" latency;
  {
    zone_of = Array.copy zone_of;
    zones;
    bandwidth = Array.map Array.copy bandwidth;
    latency = Array.map Array.copy latency;
  }

let uniform ~m =
  if m < 1 then invalid_arg "Topology.uniform: need at least one machine";
  {
    zone_of = Array.make m 0;
    zones = 1;
    bandwidth = [| [| infinity |] |];
    latency = [| [| 0.0 |] |];
  }

let zoned ?(latency = 0.0) ~m ~zones ~bandwidth () =
  if m < 1 then invalid_arg "Topology.zoned: need at least one machine";
  if zones < 1 || zones > m then
    bad "Topology.zoned: zones=%d outside [1, %d]" zones m;
  if not (valid_bandwidth bandwidth) then
    bad "Topology.zoned: cross-zone bandwidth %g must be > 0 (NaN rejected)"
      bandwidth;
  if not (valid_latency latency) then
    bad "Topology.zoned: cross-zone latency %g must be finite and >= 0" latency;
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

(* Bit-exact floats for the header round trip, same scheme as
   [Speed_band.float_str]. [%g] renders infinity as "inf", which
   [float_of_string] reads back. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let matrix_str matrix =
  String.concat ":"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat "," (Array.to_list (Array.map float_str row)))
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

let parse_matrix ~what raw =
  let rows = String.split_on_char ':' raw in
  let parse_row row =
    let entries = String.split_on_char ',' row in
    let out = Array.make (List.length entries) 0.0 in
    List.iteri
      (fun c e ->
        match float_of_string_opt (String.trim e) with
        | Some x -> out.(c) <- x
        | None -> failwith (Printf.sprintf "bad %s entry %S" what e))
      entries;
    out
  in
  Array.of_list (List.map parse_row rows)

let of_string text =
  match String.split_on_char '|' text with
  | [ zones_raw; bw_raw; lat_raw ] -> (
      let parse () =
        let zone_entries = String.split_on_char ',' zones_raw in
        let zone_of = Array.make (List.length zone_entries) 0 in
        List.iteri
          (fun i e ->
            match int_of_string_opt (String.trim e) with
            | Some z -> zone_of.(i) <- z
            | None -> failwith (Printf.sprintf "bad zone id %S" e))
          zone_entries;
        let bandwidth = parse_matrix ~what:"bandwidth" bw_raw in
        let latency = parse_matrix ~what:"latency" lat_raw in
        make ~zone_of ~bandwidth ~latency
      in
      match parse () with
      | t -> Ok t
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg)
  | _ ->
      Error
        (Printf.sprintf
           "bad topology %S (expected ZONES|BWROWS|LATROWS with 2 '|' \
            separators)"
           text)

let spec_grammar =
  "expected uniform (one zone, free transfers), zones:Z:BW[:LAT] (Z \
   contiguous equal zones, cross-zone bandwidth BW > 0, cross-zone latency \
   LAT >= 0, default 0), or a serialized ZONES|BWROWS|LATROWS topology"

let of_spec ~m:mm text =
  let with_grammar = function
    | Ok _ as ok -> ok
    | Error msg -> Error (Printf.sprintf "%s; %s" msg spec_grammar)
  in
  match String.split_on_char ':' text with
  | [ "uniform" ] -> Ok (uniform ~m:mm)
  | "zones" :: rest ->
      with_grammar
        (let parse_float what raw =
           match float_of_string_opt raw with
           | Some x -> Ok x
           | None -> Error (Printf.sprintf "bad %s %S" what raw)
         in
         let build ~zones ~bandwidth ~latency =
           match zoned ~latency ~m:mm ~zones ~bandwidth () with
           | t -> Ok t
           | exception Invalid_argument msg -> Error msg
         in
         match rest with
         | [ z_raw; bw_raw ] | [ z_raw; bw_raw; _ ] -> (
             match int_of_string_opt z_raw with
             | None -> Error (Printf.sprintf "bad zone count %S" z_raw)
             | Some zones -> (
                 match parse_float "cross-zone bandwidth" bw_raw with
                 | Error _ as e -> e
                 | Ok bandwidth -> (
                     match rest with
                     | [ _; _ ] -> build ~zones ~bandwidth ~latency:0.0
                     | [ _; _; lat_raw ] -> (
                         match parse_float "cross-zone latency" lat_raw with
                         | Error _ as e -> e
                         | Ok latency -> build ~zones ~bandwidth ~latency)
                     | _ -> assert false)))
         | _ -> Error (Printf.sprintf "bad zones spec %S" text))
  | _ ->
      with_grammar
        (match of_string text with
        | Ok t when m t = mm -> Ok t
        | Ok t ->
            Error
              (Printf.sprintf "topology covers %d machines, instance has %d"
                 (m t) mm)
        | Error _ as e -> e)

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
