type series = {
  label : string;
  marker : char;
  points : (float * float) list;
}

let width = 64
let height = 16

let render ?(log_y = false) ?(x_label = "") ?(y_label = "") series_list =
  if series_list = [] then invalid_arg "Ascii_plot.render: no series";
  List.iter
    (fun s ->
      if s.points = [] then invalid_arg "Ascii_plot.render: empty series";
      if log_y then
        List.iter
          (fun (_, y) ->
            if y <= 0.0 then
              invalid_arg "Ascii_plot.render: non-positive value under log_y")
          s.points)
    series_list;
  let transform y = if log_y then log10 y else y in
  let all_points = List.concat_map (fun s -> s.points) series_list in
  let xs = List.map fst all_points in
  let ys = List.map (fun (_, y) -> transform y) all_points in
  let x_min = List.fold_left min infinity xs in
  let x_max = List.fold_left max neg_infinity xs in
  let y_min = List.fold_left min infinity ys in
  let y_max = List.fold_left max neg_infinity ys in
  let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
  let y_span = if y_max > y_min then y_max -. y_min else 1.0 in
  let canvas = Array.make_matrix height width ' ' in
  let place s =
    List.iter
      (fun (x, y) ->
        let col =
          int_of_float
            (Float.round ((x -. x_min) /. x_span *. float_of_int (width - 1)))
        in
        let row_from_bottom =
          int_of_float
            (Float.round
               ((transform y -. y_min) /. y_span *. float_of_int (height - 1)))
        in
        let row = height - 1 - row_from_bottom in
        canvas.(row).(col) <- s.marker)
      s.points
  in
  List.iter place series_list;
  let buf = Buffer.create ((width + 12) * (height + 4)) in
  let y_tick v = Printf.sprintf "%9.3g" (if log_y then 10.0 ** v else v) in
  for row = 0 to height - 1 do
    let tick =
      if row = 0 then y_tick y_max
      else if row = height - 1 then y_tick y_min
      else String.make 9 ' '
    in
    Buffer.add_string buf tick;
    Buffer.add_string buf " |";
    Buffer.add_string buf (String.init width (fun col -> canvas.(row).(col)));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (String.make 10 ' ');
  Buffer.add_char buf '+';
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%10s %-10.3g%*s%10.3g\n" "" x_min (width - 10) "" x_max);
  if x_label <> "" || y_label <> "" then
    Buffer.add_string buf (Printf.sprintf "  x: %s   y: %s%s\n" x_label y_label
                             (if log_y then " (log scale)" else ""));
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "  %c %s\n" s.marker s.label))
    series_list;
  Buffer.contents buf

let print ?log_y ?x_label ?y_label series_list =
  print_string (render ?log_y ?x_label ?y_label series_list)
