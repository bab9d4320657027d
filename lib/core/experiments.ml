let default_vdds = [| 0.100; 0.150; 0.200; 0.250; 0.300; 0.350; 0.400; 0.450 |]

let cell_of flavor =
  let lib = Lazy.force Finfet.Library.default in
  Finfet.Variation.nominal_cell
    ~nfet:(Finfet.Library.nfet lib flavor)
    ~pfet:(Finfet.Library.pfet lib flavor)

(* --- Figure 2 --- *)

type voltage_point = {
  vdd : float;
  lvt : float;
  hvt : float;
}

let fig2a_hsnm ?(vdds = default_vdds) () =
  let lvt_cell = cell_of Finfet.Library.Lvt in
  let hvt_cell = cell_of Finfet.Library.Hvt in
  Array.map
    (fun vdd ->
      { vdd;
        lvt = Sram_cell.Margins.hold_snm ~cell:lvt_cell vdd;
        hvt = Sram_cell.Margins.hold_snm ~cell:hvt_cell vdd })
    vdds

let fig2b_leakage ?(vdds = default_vdds) () =
  let lvt_cell = cell_of Finfet.Library.Lvt in
  let hvt_cell = cell_of Finfet.Library.Hvt in
  Array.map
    (fun vdd ->
      { vdd;
        lvt = Sram_cell.Leakage.power ~vdd ~cell:lvt_cell ();
        hvt = Sram_cell.Leakage.power ~vdd ~cell:hvt_cell () })
    vdds

let print_fig2 () =
  let hsnm = fig2a_hsnm () in
  let leak = fig2b_leakage () in
  let table =
    Report.create
      ~columns:
        [ "Vdd"; "HSNM LVT"; "HSNM HVT"; "HSNM/Vdd LVT"; "HSNM/Vdd HVT";
          "P_leak LVT"; "P_leak HVT" ]
  in
  Array.iteri
    (fun i h ->
      let l = leak.(i) in
      Report.add_row table
        [ Units.mv h.vdd; Units.mv h.lvt; Units.mv h.hvt;
          Printf.sprintf "%.0f%%" (100.0 *. h.lvt /. h.vdd);
          Printf.sprintf "%.0f%%" (100.0 *. h.hvt /. h.vdd);
          Units.nw l.lvt; Units.nw l.hvt ])
    hsnm;
  Report.print ~title:"Figure 2: HSNM and leakage power vs Vdd" table;
  let nominal = leak.(Array.length leak - 1) in
  Printf.printf
    "Anchors: paper P_leak(450mV) = 1.692 nW (LVT) / 0.082 nW (HVT); measured %s / %s (ratio %.1fx, paper 20.6x)\n"
    (Units.nw nominal.lvt) (Units.nw nominal.hvt) (nominal.lvt /. nominal.hvt);
  print_newline ();
  Ascii_plot.print ~log_y:true ~x_label:"Vdd (mV)" ~y_label:"P_leak (W)"
    [ { Ascii_plot.label = "6T-LVT"; marker = 'L';
        points = Array.to_list (Array.map (fun p -> (p.vdd *. 1e3, p.lvt)) leak) };
      { Ascii_plot.label = "6T-HVT"; marker = 'H';
        points = Array.to_list (Array.map (fun p -> (p.vdd *. 1e3, p.hvt)) leak) } ]

(* --- Figure 3(a) --- *)

type fig3a = {
  rsnm_lvt : float;
  rsnm_hvt : float;
  iread_lvt : float;
  iread_hvt : float;
}

let fig3a () =
  let lib = Lazy.force Finfet.Library.default in
  let read = Sram_cell.Sram6t.read () in
  let vdd = Finfet.Tech.vdd_nominal in
  { rsnm_lvt = Sram_cell.Margins.read_snm ~cell:(cell_of Finfet.Library.Lvt) read;
    rsnm_hvt = Sram_cell.Margins.read_snm ~cell:(cell_of Finfet.Library.Hvt) read;
    iread_lvt = Finfet.Library.i_read lib Finfet.Library.Lvt ~vddc:vdd ~vssc:0.0;
    iread_hvt = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:vdd ~vssc:0.0 }

let print_fig3a () =
  let r = fig3a () in
  let table =
    Report.create ~columns:[ "metric"; "6T-LVT"; "6T-HVT"; "HVT/LVT"; "paper HVT/LVT" ]
  in
  Report.add_row table
    [ "RSNM"; Units.mv r.rsnm_lvt; Units.mv r.rsnm_hvt;
      Printf.sprintf "%.2fx" (r.rsnm_hvt /. r.rsnm_lvt); "1.9x" ];
  Report.add_row table
    [ "I_read"; Units.ua r.iread_lvt; Units.ua r.iread_hvt;
      Printf.sprintf "%.2fx" (r.iread_hvt /. r.iread_lvt); "~0.5x" ];
  Report.print
    ~title:"Figure 3(a): RSNM and read current, no assist, nominal Vdd" table

(* --- Figures 3(b)-(d) --- *)

type read_assist_sweep = {
  technique : Assist.Technique.read_assist;
  points : Assist.Sweep.read_point array;
  yield_crossing : float option;
  lvt_delay_crossing : float option;
}

let lvt_reference_bl_delay () =
  let lib = Lazy.force Finfet.Library.default in
  let i =
    Finfet.Library.i_read lib Finfet.Library.Lvt
      ~vddc:Finfet.Tech.vdd_nominal ~vssc:0.0
  in
  Assist.Sweep.bl_delay_of_current ~flavor:Finfet.Library.Lvt i

let fig3_read_assist technique =
  let voltages = Assist.Technique.default_read_range technique in
  let points =
    Assist.Sweep.read_sweep ~flavor:Finfet.Library.Hvt ~technique ~voltages ()
  in
  let rsnm_points =
    Array.map
      (fun (p : Assist.Sweep.read_point) ->
        (p.Assist.Sweep.voltage, p.Assist.Sweep.rsnm))
      points
  in
  let delay_points =
    Array.map
      (fun (p : Assist.Sweep.read_point) ->
        (p.Assist.Sweep.voltage, p.Assist.Sweep.bl_delay))
      points
  in
  { technique;
    points;
    yield_crossing =
      Assist.Sweep.crossing_voltage ~points:rsnm_points
        ~threshold:Finfet.Tech.min_margin;
    lvt_delay_crossing =
      Assist.Sweep.crossing_voltage ~points:delay_points
        ~threshold:(lvt_reference_bl_delay ()) }

let print_fig3bcd () =
  let reference = lvt_reference_bl_delay () in
  Printf.printf
    "\nReference: unassisted 6T-LVT BL delay (64-cell column) = %s; RSNM requirement = %s\n"
    (Units.ps reference) (Units.mv Finfet.Tech.min_margin);
  List.iter
    (fun (label, technique, paper_note) ->
      let sweep = fig3_read_assist technique in
      let table =
        Report.create ~columns:[ "voltage"; "RSNM"; "I_read"; "BL delay (64 rows)" ]
      in
      Array.iter
        (fun (p : Assist.Sweep.read_point) ->
          Report.add_row table
            [ Units.mv p.Assist.Sweep.voltage;
              Units.mv p.Assist.Sweep.rsnm;
              Units.ua p.Assist.Sweep.read_current;
              Units.ps p.Assist.Sweep.bl_delay ])
        sweep.points;
      Report.print
        ~title:
          (Printf.sprintf "Figure 3(%s): %s on 6T-HVT" label
             (Assist.Technique.read_assist_name technique))
        table;
      (match sweep.yield_crossing with
       | Some v ->
         Printf.printf "RSNM meets the yield rule at %s (%s)\n" (Units.mv v)
           paper_note
       | None -> Printf.printf "RSNM does not cross the yield rule in range (%s)\n" paper_note);
      match sweep.lvt_delay_crossing with
      | Some v ->
        Printf.printf "BL delay matches unassisted LVT at %s\n" (Units.mv v)
      | None -> ())
    [ ("b", Assist.Technique.Vdd_boost, "paper: V_DDC = 550 mV");
      ("c", Assist.Technique.Negative_gnd, "paper: RSNM already aided by boost; V_SSC = -100 mV matches LVT delay");
      ("d", Assist.Technique.Wl_underdrive, "paper: V_WL = 300 mV") ];
  let gnd = fig3_read_assist Assist.Technique.Negative_gnd in
  print_newline ();
  Ascii_plot.print ~x_label:"V_SSC (mV)" ~y_label:"64-row BL delay (ps)"
    [ { Ascii_plot.label = "6T-HVT BL delay under negative Gnd"; marker = '*';
        points =
          Array.to_list
            (Array.map
               (fun (p : Assist.Sweep.read_point) ->
                 (p.Assist.Sweep.voltage *. 1e3, p.Assist.Sweep.bl_delay *. 1e12))
               gnd.points) };
      { Ascii_plot.label = "unassisted 6T-LVT reference"; marker = '-';
        points =
          [ (-240.0, reference *. 1e12); (0.0, reference *. 1e12) ] } ]

(* --- Figure 5 --- *)

type write_assist_sweep = {
  technique : Assist.Technique.write_assist;
  points : Assist.Sweep.write_point array;
  wm_yield_crossing : float option;
}

let fig5_write_assist technique =
  let voltages = Assist.Technique.default_write_range technique in
  let points =
    Assist.Sweep.write_sweep ~flavor:Finfet.Library.Hvt ~technique ~voltages ()
  in
  let wm_points =
    Array.map
      (fun (p : Assist.Sweep.write_point) ->
        (p.Assist.Sweep.voltage, p.Assist.Sweep.wm))
      points
  in
  { technique;
    points;
    wm_yield_crossing =
      Assist.Sweep.crossing_voltage ~points:wm_points
        ~threshold:Finfet.Tech.min_margin }

let print_fig5 () =
  List.iter
    (fun (label, technique, paper_note) ->
      let sweep = fig5_write_assist technique in
      let table =
        Report.create ~columns:[ "voltage"; "WM"; "cell write delay" ]
      in
      Array.iter
        (fun p ->
          Report.add_row table
            [ Units.mv p.Assist.Sweep.voltage;
              Units.mv p.Assist.Sweep.wm;
              Units.ps p.Assist.Sweep.cell_write_delay ])
        sweep.points;
      Report.print
        ~title:
          (Printf.sprintf "Figure 5(%s): %s on 6T-HVT" label
             (Assist.Technique.write_assist_name technique))
        table;
      match sweep.wm_yield_crossing with
      | Some v ->
        Printf.printf "WM meets the yield rule at %s (%s)\n" (Units.mv v) paper_note
      | None ->
        Printf.printf "WM does not cross the yield rule in range (%s)\n" paper_note)
    [ ("a", Assist.Technique.Wl_overdrive, "paper: V_WL = 540 mV");
      ("b", Assist.Technique.Negative_bl, "paper: V_BL = -100 mV") ]

(* --- Table 4 / Figure 7 --- *)

type design_row = {
  capacity_bits : int;
  config : Framework.config;
  nr : int;
  nc : int;
  n_pre : int;
  n_wr : int;
  vddc : float;
  vssc : float;
  vwl : float;
  d_array : float;
  e_total : float;
  edp : float;
  d_bl_read : float;
}

let design_table () =
  let results =
    Framework.sweep_capacities ~capacities:Framework.paper_capacities
      ~configs:Framework.all_configs ()
  in
  List.map
    (fun (o : Framework.optimized) ->
      let g = Framework.geometry o in
      let a = Framework.assist o in
      let m = Framework.metrics o in
      { capacity_bits = o.Framework.capacity_bits;
        config = o.Framework.config;
        nr = g.Array_model.Geometry.nr;
        nc = g.Array_model.Geometry.nc;
        n_pre = g.Array_model.Geometry.n_pre;
        n_wr = g.Array_model.Geometry.n_wr;
        vddc = a.Array_model.Components.vddc;
        vssc = a.Array_model.Components.vssc;
        vwl = a.Array_model.Components.vwl;
        d_array = m.Array_model.Array_eval.d_array;
        e_total = m.Array_model.Array_eval.e_total;
        edp = m.Array_model.Array_eval.edp;
        d_bl_read = m.Array_model.Array_eval.d_bl_read })
    results

let print_table4 () =
  let rows = design_table () in
  let table =
    Report.create
      ~columns:
        [ "M"; "SRAM"; "n_r"; "n_c"; "N_pre"; "N_wr"; "V_DDC"; "V_SSC"; "V_WL" ]
  in
  let last_capacity = ref 0 in
  List.iter
    (fun r ->
      if !last_capacity <> 0 && r.capacity_bits <> !last_capacity then
        Report.add_separator table;
      last_capacity := r.capacity_bits;
      Report.add_row table
        [ Units.capacity r.capacity_bits;
          Framework.config_name r.config;
          string_of_int r.nr; string_of_int r.nc;
          string_of_int r.n_pre; string_of_int r.n_wr;
          Units.mv r.vddc; Units.mv r.vssc; Units.mv r.vwl ])
    rows;
  Report.print ~title:"Table 4: SRAM array design parameters at the minimum-EDP point"
    table

let print_fig7 () =
  let rows = design_table () in
  List.iter
    (fun (title, value) ->
      let table =
        Report.create
          ~columns:
            [ "M"; "6T-LVT-M1"; "6T-HVT-M1"; "6T-LVT-M2"; "6T-HVT-M2" ]
      in
      List.iter
        (fun capacity_bits ->
          let cell config =
            match
              List.find_opt
                (fun r -> r.capacity_bits = capacity_bits && r.config = config)
                rows
            with
            | Some r -> value r
            | None -> "-"
          in
          Report.add_row table
            (Units.capacity capacity_bits
             :: List.map cell Framework.all_configs))
        Framework.paper_capacities;
      Report.print ~title table)
    [ ("Figure 7(a): array delay", fun r -> Units.ps r.d_array);
      ("Figure 7(b): array energy per access", fun r -> Units.fj r.e_total);
      ("Figure 7(c): energy-delay product",
       fun r -> Printf.sprintf "%.3g Js" r.edp) ];
  let series config marker =
    { Ascii_plot.label = Framework.config_name config;
      marker;
      points =
        List.filter_map
          (fun r ->
            if r.config = config then
              Some (log (float_of_int r.capacity_bits) /. log 2.0, r.edp)
            else None)
          rows }
  in
  print_newline ();
  Ascii_plot.print ~log_y:true ~x_label:"log2(capacity bits)" ~y_label:"EDP (Js)"
    [ series { Framework.flavor = Finfet.Library.Lvt; method_ = Opt.Space.M1 } '1';
      series { Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M1 } '2';
      series { Framework.flavor = Finfet.Library.Lvt; method_ = Opt.Space.M2 } '3';
      series { Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 } '4' ]

let print_fig7d () =
  let rows = design_table () in
  let table =
    Report.create
      ~columns:
        [ "M"; "M1 BL delay"; "M1 total"; "M2 BL delay"; "M2 total";
          "BL speedup"; "total speedup" ]
  in
  List.iter
    (fun capacity_bits ->
      let find method_ =
        List.find
          (fun r ->
            r.capacity_bits = capacity_bits
            && r.config
               = { Framework.flavor = Finfet.Library.Hvt; method_ })
          rows
      in
      let m1 = find Opt.Space.M1 and m2 = find Opt.Space.M2 in
      Report.add_row table
        [ Units.capacity capacity_bits;
          Units.ps m1.d_bl_read; Units.ps m1.d_array;
          Units.ps m2.d_bl_read; Units.ps m2.d_array;
          Printf.sprintf "%.1fx" (m1.d_bl_read /. m2.d_bl_read);
          Printf.sprintf "%.1fx" (m1.d_array /. m2.d_array) ])
    Framework.paper_capacities;
  Report.print
    ~title:
      "Figure 7(d): BL vs total delay, 6T-HVT-M1 vs 6T-HVT-M2 (paper: BL 3.3x, total 1.8x average)"
    table

let print_headline () =
  let h = Framework.headline () in
  let table =
    Report.create ~columns:[ "capacity"; "EDP reduction"; "delay penalty" ]
  in
  List.iter
    (fun (capacity_bits, reduction, penalty) ->
      Report.add_row table
        [ Units.capacity capacity_bits;
          Units.percent (-.reduction);
          Units.percent penalty ])
    h.Framework.per_capacity;
  Report.print
    ~title:"Headline: 6T-HVT-M2 vs 6T-LVT-M2 (capacities >= 1KB)" table;
  Printf.printf
    "Average EDP reduction: %.1f%% (paper: 59%%); delay penalty avg %.1f%% / max %.1f%% (paper: 9%% / 12%%)\n"
    (100.0 *. h.Framework.avg_edp_reduction)
    (100.0 *. h.Framework.avg_delay_penalty)
    (100.0 *. h.Framework.max_delay_penalty)

let run_all () =
  print_fig2 ();
  print_fig3a ();
  print_fig3bcd ();
  print_fig5 ();
  print_table4 ();
  print_fig7 ();
  print_fig7d ();
  print_headline ()
