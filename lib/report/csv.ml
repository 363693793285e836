let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let row cells = String.concat "," (List.map escape cells)

let to_string ~header rows =
  let arity = List.length header in
  List.iter
    (fun r ->
      if List.length r <> arity then invalid_arg "Csv.to_string: arity mismatch")
    rows;
  String.concat "\n" (row header :: List.map row rows) ^ "\n"
