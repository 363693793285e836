(* Tests for tables, CSV and ASCII plots. *)

module Table = Usched_report.Table
module Csv = Usched_report.Csv
module Plot = Usched_report.Ascii_plot

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let table_renders_header_and_rows () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "m"; "210" ];
  let text = Table.render t in
  checkb "header" true (contains text "name");
  checkb "row 1" true (contains text "alpha");
  checkb "row 2" true (contains text "210");
  checkb "borders" true (contains text "+--")

let table_alignment () =
  let t = Table.create ~columns:[ ("l", Table.Left); ("r", Table.Right) ] in
  Table.add_row t [ "ab"; "cd" ];
  Table.add_row t [ "a"; "c" ];
  let text = Table.render t in
  checkb "left aligned pads right" true (contains text "| a  |");
  checkb "right aligned pads left" true (contains text "|  c |")

let table_arity_checked () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let cell_float_formats () =
  checks "integer sheds decimals" "3" (Table.cell_float 3.0);
  checks "four decimals" "3.1416" (Table.cell_float 3.14159265);
  checks "custom decimals" "3.14" (Table.cell_float ~decimals:2 3.14159265)

let csv_escaping () =
  let row cells = Csv.to_string ~header:cells [] in
  checks "plain" "abc\n" (row [ "abc" ]);
  checks "comma" "\"a,b\"\n" (row [ "a,b" ]);
  checks "quote doubled" "\"a\"\"b\"\n" (row [ "a\"b" ]);
  checks "newline" "\"a\nb\"\n" (row [ "a\nb" ])

let csv_document () =
  let doc = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  checks "full document" "x,y\n1,2\n3,4\n" doc

let csv_arity_checked () =
  Alcotest.check_raises "arity" (Invalid_argument "Csv.to_string: arity mismatch")
    (fun () -> ignore (Csv.to_string ~header:[ "x" ] [ [ "1"; "2" ] ]))

let plot_renders_series () =
  let text =
    Plot.plot ~width:30 ~height:8 ~x_label:"k" ~y_label:"ratio"
      [
        {
          Plot.label = "guarantee";
          glyph = '*';
          points = [| (1.0, 2.0); (2.0, 1.5); (3.0, 1.2) |];
        };
      ]
  in
  checkb "has glyph" true (contains text "*");
  checkb "has legend" true (contains text "guarantee");
  checkb "has axis label" true (contains text "(k)")

let plot_empty () =
  checks "empty message" "(no data to plot)\n" (Plot.plot []);
  checks "series without points" "(no data to plot)\n"
    (Plot.plot [ { Plot.label = "x"; glyph = 'x'; points = [||] } ])

let plot_degenerate_range () =
  (* A single point must not crash on the zero-width range. *)
  let text =
    Plot.plot [ { Plot.label = "p"; glyph = 'o'; points = [| (1.0, 1.0) |] } ]
  in
  checkb "renders" true (contains text "o")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_renders_header_and_rows;
          Alcotest.test_case "alignment" `Quick table_alignment;
          Alcotest.test_case "arity" `Quick table_arity_checked;
          Alcotest.test_case "float cells" `Quick cell_float_formats;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick csv_escaping;
          Alcotest.test_case "document" `Quick csv_document;
          Alcotest.test_case "arity" `Quick csv_arity_checked;
        ] );
      ( "plot",
        [
          Alcotest.test_case "series render" `Quick plot_renders_series;
          Alcotest.test_case "empty" `Quick plot_empty;
          Alcotest.test_case "degenerate range" `Quick plot_degenerate_range;
        ] );
    ]
