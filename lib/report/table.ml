type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list;  (* reversed *)
}

let create ~columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun c header ->
        List.fold_left
          (fun acc cells -> Stdlib.max acc (String.length (List.nth cells c)))
          (String.length header) rows)
      t.headers
  in
  let buffer = Buffer.create 512 in
  let horizontal () =
    Buffer.add_char buffer '+';
    List.iter
      (fun w ->
        Buffer.add_string buffer (String.make (w + 2) '-');
        Buffer.add_char buffer '+')
      widths;
    Buffer.add_char buffer '\n'
  in
  let line cells =
    Buffer.add_char buffer '|';
    List.iteri
      (fun c cell ->
        let align = List.nth t.aligns c and width = List.nth widths c in
        Buffer.add_string buffer (" " ^ pad align width cell ^ " |"))
      cells;
    Buffer.add_char buffer '\n'
  in
  horizontal ();
  line t.headers;
  horizontal ();
  List.iter line rows;
  horizontal ();
  Buffer.contents buffer

let cell_float ?(decimals = 4) x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" decimals x
