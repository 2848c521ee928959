type align = Left | Right | Center

type row = Cells of string list | Separator

type t = {
  title : string option;
  headers : (string * align) list;
  mutable rows : row list; (* reversed *)
}

let create ?title headers = { title; headers; rows = [] }

let add_row t cells =
  let n_cols = List.length t.headers and n = List.length cells in
  if n > n_cols then invalid_arg "Table.add_row: too many cells";
  let padded =
    if n = n_cols then cells
    else cells @ List.init (n_cols - n) (fun _ -> "")
  in
  t.rows <- Cells padded :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

(* Cell widths count display characters, not bytes: a cell holding a
   multi-byte UTF-8 sequence would otherwise misalign every column
   after it. ASCII
   cells are unaffected (the two lengths agree). *)
let display_length s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad align width s =
  let len = display_length s in
  if len >= width then s
  else
    let fill = width - len in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.headers in
  let aligns = List.map snd t.headers in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match row with
            | Separator -> acc
            | Cells cells -> max acc (display_length (List.nth cells i)))
          (display_length h) rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        let w = List.nth widths i and a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | None -> ()
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n');
  rule ();
  line headers;
  rule ();
  List.iter
    (fun row -> match row with Separator -> rule () | Cells c -> line c)
    rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let title t = t.title
let headers t = List.map fst t.headers

let rows t =
  List.rev t.rows
  |> List.filter_map (function Separator -> None | Cells c -> Some c)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n" (line (headers t) :: List.map line (rows t)) ^ "\n"

let fmt_float ?(decimals = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let fmt_pct ?(decimals = 1) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f%%" decimals (x *. 100.0)

let fmt_ratio x =
  if Float.is_nan x then "-" else Printf.sprintf "%.2fx" x
