let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let csv_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let csv_line fields = String.concat "," (List.map csv_field fields) ^ "\n"

type file = {
  filename : string;
  header : string list;
  rows : string list list;
}

let render f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (csv_line f.header);
  List.iter (fun row -> Buffer.add_string buf (csv_line row)) f.rows;
  Buffer.contents buf

let g v = Printf.sprintf "%.9g" v

let fig2_files () =
  let voltage_rows points =
    Array.to_list
      (Array.map
         (fun (p : Experiments.voltage_point) ->
           [ g p.Experiments.vdd; g p.Experiments.lvt; g p.Experiments.hvt ])
         points)
  in
  [ { filename = "fig2a_hsnm.csv";
      header = [ "vdd_v"; "hsnm_lvt_v"; "hsnm_hvt_v" ];
      rows = voltage_rows (Experiments.fig2a_hsnm ()) };
    { filename = "fig2b_leakage.csv";
      header = [ "vdd_v"; "p_leak_lvt_w"; "p_leak_hvt_w" ];
      rows = voltage_rows (Experiments.fig2b_leakage ()) } ]

let fig3_files () =
  List.map
    (fun (tag, technique) ->
      let sweep = Experiments.fig3_read_assist technique in
      { filename = Printf.sprintf "fig3%s_%s.csv" tag
          (String.map (function ' ' -> '_' | c -> c)
             (String.lowercase_ascii (Assist.Technique.read_assist_name technique)));
        header = [ "voltage_v"; "rsnm_v"; "i_read_a"; "bl_delay_s" ];
        rows =
          Array.to_list
            (Array.map
               (fun (p : Assist.Sweep.read_point) ->
                 [ g p.Assist.Sweep.voltage; g p.Assist.Sweep.rsnm;
                   g p.Assist.Sweep.read_current; g p.Assist.Sweep.bl_delay ])
               sweep.Experiments.points) })
    [ ("b", Assist.Technique.Vdd_boost);
      ("c", Assist.Technique.Negative_gnd);
      ("d", Assist.Technique.Wl_underdrive) ]

let fig5_files () =
  List.map
    (fun (tag, technique) ->
      let sweep = Experiments.fig5_write_assist technique in
      { filename = Printf.sprintf "fig5%s_%s.csv" tag
          (String.map (function ' ' -> '_' | c -> c)
             (String.lowercase_ascii (Assist.Technique.write_assist_name technique)));
        header = [ "voltage_v"; "wm_v"; "cell_write_delay_s" ];
        rows =
          Array.to_list
            (Array.map
               (fun (p : Assist.Sweep.write_point) ->
                 [ g p.Assist.Sweep.voltage; g p.Assist.Sweep.wm;
                   g p.Assist.Sweep.cell_write_delay ])
               sweep.Experiments.points) })
    [ ("a", Assist.Technique.Wl_overdrive); ("b", Assist.Technique.Negative_bl) ]

let fig7_file () =
  let rows = Experiments.design_table () in
  { filename = "table4_fig7_designs.csv";
    header =
      [ "capacity_bits"; "config"; "nr"; "nc"; "n_pre"; "n_wr"; "vddc_v";
        "vssc_v"; "vwl_v"; "d_array_s"; "e_total_j"; "edp_js"; "d_bl_read_s" ];
    rows =
      List.map
        (fun (r : Experiments.design_row) ->
          [ string_of_int r.Experiments.capacity_bits;
            Framework.config_name r.Experiments.config;
            string_of_int r.Experiments.nr;
            string_of_int r.Experiments.nc;
            string_of_int r.Experiments.n_pre;
            string_of_int r.Experiments.n_wr;
            g r.Experiments.vddc; g r.Experiments.vssc; g r.Experiments.vwl;
            g r.Experiments.d_array; g r.Experiments.e_total;
            g r.Experiments.edp; g r.Experiments.d_bl_read ])
        rows }

let all_files () =
  fig2_files () @ fig3_files () @ fig5_files () @ [ fig7_file () ]

let write_all ~dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun f ->
      let path = Filename.concat dir f.filename in
      let oc = open_out path in
      output_string oc (render f);
      close_out oc;
      path)
    files
