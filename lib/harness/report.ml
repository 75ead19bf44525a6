(** Plain-text rendering of benchmark results: one table per paper
    figure, x values down the rows and one column per series, mirroring
    the data behind the paper's line plots. *)

type series = { label : string; points : (float * float) list }

let find_y s x =
  List.assoc_opt x s.points

let print_table ~title ~x_label ~y_label series =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "(y = %s)\n" y_label;
  let xs =
    List.concat_map (fun s -> List.map fst s.points) series
    |> List.sort_uniq compare
  in
  let col_width =
    List.fold_left (fun acc s -> max acc (String.length s.label)) 10 series
    + 2
  in
  (match xs with
  | [ x ] ->
      (* One x value: the series go down the rows. [stats] needs this:
         its metric: table is ~100 series at one domain count, which as
         columns would be one line thousands of characters wide. *)
      Printf.printf "%-*s %s = %g\n" col_width "" x_label x;
      List.iter
        (fun s ->
          Printf.printf "%-*s %.4f\n" col_width s.label
            (Option.value (find_y s x) ~default:nan))
        series
  | _ ->
      Printf.printf "%-12s" x_label;
      List.iter (fun s -> Printf.printf "%*s" col_width s.label) series;
      print_newline ();
      List.iter
        (fun x ->
          Printf.printf "%-12g" x;
          List.iter
            (fun s ->
              match find_y s x with
              | Some y -> Printf.printf "%*.4f" col_width y
              | None -> Printf.printf "%*s" col_width "-")
            series;
          print_newline ())
        xs);
  flush stdout

(* Minimal JSON emission (no dependency): labels are the only strings
   and contain no control characters, but escape defensively anyway. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string ~title ?(meta = []) series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"title\": \"%s\",\n" (json_escape title));
  Buffer.add_string buf "  \"meta\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
    meta;
  Buffer.add_string buf "},\n";
  Buffer.add_string buf "  \"series\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"label\": \"%s\", \"points\": ["
           (json_escape s.label));
      List.iteri
        (fun j (x, y) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "[%g, %.6f]" x y))
        s.points;
      Buffer.add_string buf "]}")
    series;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_json ~path ~title ?meta series =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_string ~title ?meta series))

let print_csv ~title series =
  Printf.printf "\n# csv: %s\n" title;
  Printf.printf "x,%s\n" (String.concat "," (List.map (fun s -> s.label) series));
  let xs =
    List.concat_map (fun s -> List.map fst s.points) series
    |> List.sort_uniq compare
  in
  List.iter
    (fun x ->
      let cells =
        List.map
          (fun s ->
            match find_y s x with
            | Some y -> Printf.sprintf "%.6f" y
            | None -> "")
          series
      in
      Printf.printf "%g,%s\n" x (String.concat "," cells))
    xs;
  flush stdout
