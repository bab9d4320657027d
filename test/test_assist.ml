(* Tests of the assist-technique layer: condition construction, sweep
   behaviour (the Figure 3 / Figure 5 trends), and crossing extraction. *)

open Testutil

let technique_tests =
  [ case "read conditions apply the right rail" (fun () ->
        let vdd = Finfet.Tech.vdd_nominal in
        let boost = Assist.Technique.read_condition Assist.Technique.Vdd_boost ~voltage:0.6 in
        check_close "vddc" 0.6 boost.Sram_cell.Sram6t.vddc;
        check_close "wl stays" vdd boost.Sram_cell.Sram6t.vwl;
        let gnd = Assist.Technique.read_condition Assist.Technique.Negative_gnd ~voltage:(-0.2) in
        check_close "vssc" (-0.2) gnd.Sram_cell.Sram6t.vssc;
        check_close "vddc stays" vdd gnd.Sram_cell.Sram6t.vddc;
        let ud = Assist.Technique.read_condition Assist.Technique.Wl_underdrive ~voltage:0.3 in
        check_close "vwl" 0.3 ud.Sram_cell.Sram6t.vwl);
    case "write conditions apply the right rail" (fun () ->
        let od = Assist.Technique.write_condition Assist.Technique.Wl_overdrive ~voltage:0.55 in
        check_close "vwl" 0.55 od.Sram_cell.Sram6t.vwl;
        check_close_abs "bl" 0.0 od.Sram_cell.Sram6t.vbl;
        let nb = Assist.Technique.write_condition Assist.Technique.Negative_bl ~voltage:(-0.1) in
        check_close "vbl" (-0.1) nb.Sram_cell.Sram6t.vbl;
        check_close "vwl nominal" Finfet.Tech.vdd_nominal nb.Sram_cell.Sram6t.vwl);
    case "default ranges span the paper's sweeps" (fun () ->
        let boost = Assist.Technique.default_read_range Assist.Technique.Vdd_boost in
        check_close "start" 0.450 boost.(0);
        check_close "end" 0.700 boost.(Array.length boost - 1);
        let gnd = Assist.Technique.default_read_range Assist.Technique.Negative_gnd in
        check_close_abs "start" 0.0 gnd.(0);
        check_close "end" (-0.240) gnd.(Array.length gnd - 1));
    case "names are human readable" (fun () ->
        Alcotest.(check string) "neggnd" "negative Gnd"
          (Assist.Technique.read_assist_name Assist.Technique.Negative_gnd);
        Alcotest.(check string) "wlod" "WL overdrive"
          (Assist.Technique.write_assist_name Assist.Technique.Wl_overdrive)) ]

let sweep_tests =
  [ case "negative Gnd: current up, BL delay down, RSNM up" (fun () ->
        let points =
          Assist.Sweep.read_sweep ~flavor:Finfet.Library.Hvt
            ~technique:Assist.Technique.Negative_gnd
            ~voltages:[| 0.0; -0.08; -0.16; -0.24 |] ()
        in
        let currents = Array.map (fun p -> p.Assist.Sweep.read_current) points in
        let delays = Array.map (fun p -> p.Assist.Sweep.bl_delay) points in
        let rsnms = Array.map (fun p -> p.Assist.Sweep.rsnm) points in
        check_increasing ~strict:true "current" currents;
        check_decreasing ~strict:true "delay" delays;
        check_increasing "rsnm" rsnms);
    case "WL underdrive: RSNM up, delay explodes" (fun () ->
        let points =
          Assist.Sweep.read_sweep ~flavor:Finfet.Library.Hvt
            ~technique:Assist.Technique.Wl_underdrive
            ~voltages:[| 0.30; 0.38; 0.45 |] ()
        in
        check_decreasing ~strict:true "rsnm falls as wl rises"
          (Array.map (fun p -> p.Assist.Sweep.rsnm) points);
        Alcotest.(check bool) "delay at 300 mV is >5x nominal" true
          (points.(0).Assist.Sweep.bl_delay
           > 5.0 *. points.(2).Assist.Sweep.bl_delay));
    case "write sweep: overdrive raises WM and shortens the write" (fun () ->
        let points =
          Assist.Sweep.write_sweep ~flavor:Finfet.Library.Hvt
            ~technique:Assist.Technique.Wl_overdrive
            ~voltages:[| 0.45; 0.54; 0.63 |] ()
        in
        check_increasing ~strict:true "wm"
          (Array.map (fun p -> p.Assist.Sweep.wm) points);
        check_decreasing ~strict:true "delay"
          (Array.map (fun p -> p.Assist.Sweep.cell_write_delay) points));
    case "bl_delay_of_current is C dV / I" (fun () ->
        let d = Assist.Sweep.bl_delay_of_current ~flavor:Finfet.Library.Hvt 10e-6 in
        let lib = Lazy.force Finfet.Library.default in
        let dcaps =
          Array_model.Caps.device_caps_of
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
            ()
        in
        let c = Array_model.Caps.bl dcaps Assist.Sweep.reference_column in
        check_close "cdv/i" (c *. 0.12 /. 10e-6) d);
    case "zero current means infinite delay" (fun () ->
        Alcotest.(check bool) "inf" true
          (Assist.Sweep.bl_delay_of_current ~flavor:Finfet.Library.Hvt 0.0 = infinity));
    case "reference column is 64 rows" (fun () ->
        Alcotest.(check int) "rows" 64 Assist.Sweep.reference_column.Array_model.Geometry.nr) ]

let crossing_tests =
  [ case "crossing interpolates linearly" (fun () ->
        let points = [| (0.0, 0.0); (1.0, 10.0) |] in
        match Assist.Sweep.crossing_voltage ~points ~threshold:2.5 with
        | Some v -> check_close "quarter" 0.25 v
        | None -> Alcotest.fail "no crossing");
    case "crossing works on decreasing series" (fun () ->
        let points = [| (0.0, 10.0); (1.0, 0.0) |] in
        match Assist.Sweep.crossing_voltage ~points ~threshold:5.0 with
        | Some v -> check_close "half" 0.5 v
        | None -> Alcotest.fail "no crossing");
    case "no crossing returns None" (fun () ->
        Alcotest.(check bool) "none" true
          (Assist.Sweep.crossing_voltage ~points:[| (0.0, 1.0); (1.0, 2.0) |]
             ~threshold:5.0
           = None));
    case "first crossing wins" (fun () ->
        let points = [| (0.0, 0.0); (1.0, 10.0); (2.0, 0.0); (3.0, 10.0) |] in
        match Assist.Sweep.crossing_voltage ~points ~threshold:5.0 with
        | Some v -> check_close "first" 0.5 v
        | None -> Alcotest.fail "no crossing") ]

let () =
  Alcotest.run "assist"
    [ ("technique", technique_tests);
      ("sweep", sweep_tests);
      ("crossing", crossing_tests) ]
