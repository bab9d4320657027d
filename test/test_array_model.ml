(* Tests of the analytical array model: Table 1 capacitances against
   hand-evaluated formulas, Table 2 component pricing, the periphery LUTs,
   and the Table 3 / Equations (2)-(5) assembly. *)

open Testutil

let lib = Lazy.force Finfet.Library.default

let dcaps =
  Array_model.Caps.device_caps_of
    ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
    ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
    ()

let geometry_tests =
  [ case "create validates powers of two" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Array_model.Geometry.create ~nr:48 ~nc:64 ~n_pre:1 ~n_wr:1 ());
             false
           with Invalid_argument _ -> true));
    case "create validates fin counts" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Array_model.Geometry.create ~nr:64 ~nc:64 ~n_pre:0 ~n_wr:1 ());
             false
           with Invalid_argument _ -> true));
    case "capacity and address widths" (fun () ->
        let g = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:4 ~n_wr:2 () in
        Alcotest.(check int) "bits" 32768 (Array_model.Geometry.capacity_bits g);
        Alcotest.(check int) "row bits" 7 (Array_model.Geometry.row_address_bits g);
        Alcotest.(check int) "col bits" 2 (Array_model.Geometry.column_address_bits g);
        Alcotest.(check bool) "mux" true (Array_model.Geometry.has_column_mux g));
    case "no column mux when nc <= w" (fun () ->
        let g = Array_model.Geometry.create ~nr:128 ~nc:64 ~n_pre:4 ~n_wr:2 () in
        Alcotest.(check int) "col bits" 0 (Array_model.Geometry.column_address_bits g);
        Alcotest.(check bool) "mux" false (Array_model.Geometry.has_column_mux g));
    case "area and aspect ratio follow the cell footprint" (fun () ->
        let g = Array_model.Geometry.create ~nr:64 ~nc:64 ~n_pre:1 ~n_wr:1 () in
        (* Equal counts: aspect = width / height per cell = 2.5. *)
        check_close "aspect" 2.5 (Array_model.Geometry.aspect_ratio g);
        check_close "area"
          (64.0 *. Finfet.Tech.cell_width *. 64.0 *. Finfet.Tech.cell_height)
          (Array_model.Geometry.area g));
    case "is_power_of_two" (fun () ->
        Alcotest.(check bool) "64" true (Array_model.Geometry.is_power_of_two 64);
        Alcotest.(check bool) "0" false (Array_model.Geometry.is_power_of_two 0);
        Alcotest.(check bool) "63" false (Array_model.Geometry.is_power_of_two 63)) ]

(* Hand evaluation of Table 1 for a reference geometry. *)
let g_mux = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:5 ~n_wr:3 ()
let g_nomux = Array_model.Geometry.create ~nr:128 ~nc:64 ~n_pre:5 ~n_wr:3 ()

let caps_tests =
  let cw = Finfet.Tech.c_width and ch = Finfet.Tech.c_height in
  let { Array_model.Caps.c_dn; c_dp; c_gn; c_gp; c_width = _; c_height = _ } = dcaps in
  [ case "C_CVDD formula" (fun () ->
        check_close "cvdd"
          ((256.0 *. (cw +. (2.0 *. c_dp))) +. (2.0 *. 20.0 *. c_dp))
          (Array_model.Caps.cvdd dcaps g_mux));
    case "C_CVSS formula" (fun () ->
        check_close "cvss"
          ((256.0 *. (cw +. (2.0 *. c_dn))) +. (2.0 *. 20.0 *. c_dn))
          (Array_model.Caps.cvss dcaps g_mux));
    case "C_WL formula" (fun () ->
        check_close "wl"
          ((256.0 *. (cw +. (2.0 *. c_gn))) +. (27.0 *. (c_dn +. c_dp)))
          (Array_model.Caps.wl dcaps g_mux));
    case "C_COL with a mux" (fun () ->
        check_close "col"
          ((256.0 *. cw) +. (27.0 *. (c_dn +. c_dp))
           +. (2.0 *. 64.0 *. 3.0 *. (c_gn +. c_gp)))
          (Array_model.Caps.col dcaps g_mux));
    case "C_COL is zero without a mux" (fun () ->
        check_close_abs "col" 0.0 (Array_model.Caps.col dcaps g_nomux));
    case "C_BL with a mux (two transmission gates)" (fun () ->
        check_close "bl"
          ((128.0 *. (ch +. c_dn)) +. (6.0 *. c_dp)
           +. (2.0 *. 3.0 *. (c_dn +. c_dp)))
          (Array_model.Caps.bl dcaps g_mux));
    case "C_BL without a mux (write gate + equalizer)" (fun () ->
        check_close "bl"
          ((128.0 *. (ch +. c_dn)) +. (6.0 *. c_dp)
           +. (3.0 *. (c_dn +. c_dp)) +. c_dp)
          (Array_model.Caps.bl dcaps g_nomux));
    case "BL capacitance grows with rows, WL with columns" (fun () ->
        let tall = Array_model.Geometry.create ~nr:512 ~nc:64 ~n_pre:5 ~n_wr:3 () in
        Alcotest.(check bool) "bl" true
          (Array_model.Caps.bl dcaps tall > Array_model.Caps.bl dcaps g_nomux);
        Alcotest.(check bool) "wl" true
          (Array_model.Caps.wl dcaps g_mux > Array_model.Caps.wl dcaps g_nomux)) ]

let currents =
  Array_model.Currents.create ~lib ~cell_flavor:Finfet.Library.Hvt
    ~read_current_model:`Simulated

let currents_tests =
  let pfet_lvt = Finfet.Library.pfet lib Finfet.Library.Lvt in
  (* The ON currents are evaluated once, at [create], by the device
     model's own calls: bit-equal, not just close. *)
  let check_bits msg expected actual =
    Alcotest.(check int64) msg (Int64.bits_of_float expected)
      (Int64.bits_of_float actual)
  in
  [ case "I_ON_PFET is the single-fin LVT PFET ON current" (fun () ->
        check_bits "ion" (Finfet.Device.i_on pfet_lvt)
          (Array_model.Currents.i_on_pfet currents));
    case "WL read current carries the 0.25 x 27 coefficient" (fun () ->
        check_close "wl"
          (0.25 *. 27.0 *. Finfet.Device.i_on pfet_lvt)
          (Array_model.Currents.wl_read currents));
    case "column driver carries 0.33 x 27" (fun () ->
        check_close "col"
          (0.33 *. 27.0 *. Finfet.Device.i_on pfet_lvt)
          (Array_model.Currents.col_driver currents));
    case "precharge scales with fins" (fun () ->
        check_close "pre"
          (4.0 /. 2.0)
          (Array_model.Currents.precharge currents ~n_pre:4
           /. Array_model.Currents.precharge currents ~n_pre:2));
    case "write buffer scales with fins" (fun () ->
        check_close "wr" 5.0
          (Array_model.Currents.bl_write currents ~n_wr:10
           /. Array_model.Currents.bl_write currents ~n_wr:2));
    case "transmission gate combines both polarities" (fun () ->
        let vdd = Finfet.Tech.vdd_nominal in
        let nfet_lvt = Finfet.Library.nfet lib Finfet.Library.Lvt in
        check_bits "tg"
          (Finfet.Device.ids nfet_lvt ~vgs:vdd ~vds:(0.5 *. vdd)
           +. Finfet.Device.ids pfet_lvt ~vgs:vdd ~vds:(0.5 *. vdd))
          (Array_model.Currents.i_on_tg currents));
    case "read current cache is consistent" (fun () ->
        let a = Array_model.Currents.read_current currents ~vddc:0.55 ~vssc:(-0.1) in
        let b = Array_model.Currents.read_current currents ~vddc:0.55 ~vssc:(-0.1) in
        check_close "cached" a b;
        check_close ~tol:1e-6 "matches library"
          (Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:(-0.1))
          a);
    case "paper-fit model returns the analytic formula" (fun () ->
        let c =
          Array_model.Currents.create ~lib ~cell_flavor:Finfet.Library.Hvt
            ~read_current_model:`Paper_fit
        in
        check_close "fit"
          (Finfet.Calibration.paper_read_current ~vddc:0.55 ~vssc:(-0.2))
          (Array_model.Currents.read_current c ~vddc:0.55 ~vssc:(-0.2))) ]

let assist_nom =
  { Array_model.Components.vddc = Finfet.Tech.vdd_nominal; vssc = 0.0;
    vwl = Finfet.Tech.vdd_nominal }
let assist_m2 = { Array_model.Components.vddc = 0.55; vssc = -0.24; vwl = 0.55 }

let components_tests =
  [ case "unmoved rails are free" (fun () ->
        let c = Array_model.Components.cvdd dcaps currents g_mux assist_nom in
        check_close_abs "d" 0.0 c.Array_model.Components.delay;
        check_close_abs "e" 0.0 c.Array_model.Components.energy);
    case "component pricing follows Equation (1)" (fun () ->
        let c = Array_model.Components.bl_read dcaps currents g_mux assist_m2 in
        let cap = Array_model.Caps.bl dcaps g_mux in
        let i = Array_model.Currents.read_current currents ~vddc:0.55 ~vssc:(-0.24) in
        check_close "delay" (cap *. 0.12 /. i) c.Array_model.Components.delay;
        check_close "energy" (cap *. (0.55 +. 0.24) *. 0.12)
          c.Array_model.Components.energy);
    case "negative Gnd shortens the BL read delay" (fun () ->
        let slow = Array_model.Components.bl_read dcaps currents g_mux
            { assist_m2 with Array_model.Components.vssc = 0.0 } in
        let fast = Array_model.Components.bl_read dcaps currents g_mux assist_m2 in
        Alcotest.(check bool) "faster" true
          (fast.Array_model.Components.delay < 0.5 *. slow.Array_model.Components.delay));
    case "precharge read swings only Delta V_S" (fun () ->
        let rd = Array_model.Components.precharge_read dcaps currents g_mux assist_nom in
        let wr = Array_model.Components.precharge_write dcaps currents g_mux assist_nom in
        check_close "ratio"
          (Finfet.Tech.delta_v_sense /. Finfet.Tech.vdd_nominal)
          (rd.Array_model.Components.delay /. wr.Array_model.Components.delay));
    case "column component free without a mux" (fun () ->
        let c = Array_model.Components.col dcaps currents g_nomux assist_nom in
        check_close_abs "d" 0.0 c.Array_model.Components.delay) ]

let periphery = Array_model.Periphery.shared ~cell_flavor:Finfet.Library.Hvt

let periphery_tests =
  [ case "shared is memoized" (fun () ->
        let a = Array_model.Periphery.shared ~cell_flavor:Finfet.Library.Hvt in
        Alcotest.(check bool) "same" true (a == periphery));
    case "decoder LUT spans 0..max_address_bits" (fun () ->
        Alcotest.(check int) "len" (Array_model.Periphery.max_address_bits + 1)
          (Array.length periphery.Array_model.Periphery.row_decoder));
    case "write delay LUT decreases with V_WL" (fun () ->
        let d v = Array_model.Periphery.write_delay periphery ~vwl:v in
        check_decreasing "wd" [| d 0.45; d 0.50; d 0.55; d 0.60 |]);
    case "write delay clamps outside the grid" (fun () ->
        let low = Array_model.Periphery.write_delay periphery ~vwl:0.10 in
        let at_edge = Array_model.Periphery.write_delay periphery ~vwl:0.42 in
        check_close "clamped" at_edge low);
    case "leakage matches the cell analysis" (fun () ->
        check_close ~tol:0.03 "p_leak" 0.082e-9 periphery.Array_model.Periphery.p_leak_cell);
    case "sense delay positive" (fun () ->
        check_within "sa" ~lo:1e-13 ~hi:5e-11 periphery.Array_model.Periphery.sense_delay) ]

let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()

let eval_tests =
  [ case "d_array is the max of read and write" (fun () ->
        let m = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        check_close "max"
          (max m.Array_model.Array_eval.d_read m.Array_model.Array_eval.d_write)
          m.Array_model.Array_eval.d_array);
    case "Equation (3): switching mix" (fun () ->
        let m = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        check_close "mix"
          ((0.5 *. m.Array_model.Array_eval.e_read)
           +. (0.5 *. m.Array_model.Array_eval.e_write))
          m.Array_model.Array_eval.e_switching);
    case "Equation (4): leakage energy" (fun () ->
        let m = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        check_close "leak"
          (float_of_int (Array_model.Geometry.capacity_bits g_mux)
           *. periphery.Array_model.Periphery.p_leak_cell
           *. m.Array_model.Array_eval.d_array)
          m.Array_model.Array_eval.e_leakage);
    case "Equation (5): total energy" (fun () ->
        let m = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        check_close "total"
          ((0.5 *. m.Array_model.Array_eval.e_switching)
           +. m.Array_model.Array_eval.e_leakage)
          m.Array_model.Array_eval.e_total);
    case "EDP is energy times delay" (fun () ->
        let m = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        check_close "edp"
          (m.Array_model.Array_eval.e_total *. m.Array_model.Array_eval.d_array)
          m.Array_model.Array_eval.edp);
    case "physical accounting charges more than strict" (fun () ->
        let phys =
          Array_model.Array_eval.make_env
            ~accounting:Array_model.Array_eval.Physical
            ~cell_flavor:Finfet.Library.Hvt ()
        in
        let ms = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        let mp = Array_model.Array_eval.evaluate phys g_mux assist_m2 in
        Alcotest.(check bool) "physical >= strict" true
          (mp.Array_model.Array_eval.e_read >= ms.Array_model.Array_eval.e_read));
    case "negative Gnd reduces total read delay" (fun () ->
        let slow =
          Array_model.Array_eval.evaluate env g_mux
            { assist_m2 with Array_model.Components.vssc = 0.0 }
        in
        let fast = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        Alcotest.(check bool) "faster" true
          (fast.Array_model.Array_eval.d_read < slow.Array_model.Array_eval.d_read));
    case "LVT leaks more than HVT at the same design point" (fun () ->
        let env_lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
        let mh = Array_model.Array_eval.evaluate env g_mux assist_m2 in
        let ml = Array_model.Array_eval.evaluate env_lvt g_mux assist_m2 in
        check_within "20x" ~lo:15.0 ~hi:26.0
          (ml.Array_model.Array_eval.e_leakage /. ml.Array_model.Array_eval.d_array
           /. (mh.Array_model.Array_eval.e_leakage /. mh.Array_model.Array_eval.d_array)));
    case "more prechargers shorten the precharge-bound write" (fun () ->
        let few = Array_model.Geometry.create ~nr:512 ~nc:64 ~n_pre:1 ~n_wr:8 () in
        let many = Array_model.Geometry.create ~nr:512 ~nc:64 ~n_pre:40 ~n_wr:8 () in
        let mf = Array_model.Array_eval.evaluate env few assist_nom in
        let mm = Array_model.Array_eval.evaluate env many assist_nom in
        Alcotest.(check bool) "faster write" true
          (mm.Array_model.Array_eval.d_write < mf.Array_model.Array_eval.d_write));
    case "delay grows with capacity at fixed aspect" (fun () ->
        let d cap_side =
          let g = Array_model.Geometry.create ~nr:cap_side ~nc:cap_side ~n_pre:8 ~n_wr:2 () in
          (Array_model.Array_eval.evaluate env g assist_m2).Array_model.Array_eval.d_array
        in
        check_increasing ~strict:true "d(n)" [| d 64; d 128; d 256; d 512 |]) ]

let segmented_tests =
  let big = Array_model.Geometry.create ~nr:256 ~nc:512 ~n_pre:16 ~n_wr:2 () in
  [ case "one segment per access group is n_c / W" (fun () ->
        Alcotest.(check int) "natural" 8 (Array_model.Segmented.natural_segments big);
        Alcotest.(check int) "narrow row" 1
          (Array_model.Segmented.natural_segments g_nomux));
    case "invalid segment counts are rejected" (fun () ->
        Alcotest.(check bool) "too many" true
          (try
             ignore (Array_model.Segmented.wl dcaps currents big assist_m2 ~segments:16);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "zero" true
          (try
             ignore (Array_model.Segmented.wl dcaps currents big assist_m2 ~segments:0);
             false
           with Invalid_argument _ -> true));
    case "more segments shorten the WL path" (fun () ->
        let d segments =
          (Array_model.Segmented.wl dcaps currents big assist_m2 ~segments)
            .Array_model.Segmented.d_total
        in
        check_decreasing ~strict:true "wl(segments)" [| d 1; d 2; d 4; d 8 |]);
    case "global line grows with segment count, local shrinks" (fun () ->
        let at segments = Array_model.Segmented.wl dcaps currents big assist_m2 ~segments in
        Alcotest.(check bool) "global" true
          ((at 8).Array_model.Segmented.c_global > (at 2).Array_model.Segmented.c_global);
        Alcotest.(check bool) "local" true
          ((at 8).Array_model.Segmented.c_local < (at 2).Array_model.Segmented.c_local));
    case "full segmentation beats the flat WL on energy" (fun () ->
        let flat = Array_model.Array_eval.evaluate env big assist_m2 in
        let seg = Array_model.Segmented.evaluate env big assist_m2 ~segments:8 in
        Alcotest.(check bool) "read energy" true
          (seg.Array_model.Array_eval.e_read < flat.Array_model.Array_eval.e_read));
    case "segmented metrics keep the Equation (2)-(5) identities" (fun () ->
        let m = Array_model.Segmented.evaluate env big assist_m2 ~segments:4 in
        check_close "max"
          (max m.Array_model.Array_eval.d_read m.Array_model.Array_eval.d_write)
          m.Array_model.Array_eval.d_array;
        check_close "edp"
          (m.Array_model.Array_eval.e_total *. m.Array_model.Array_eval.d_array)
          m.Array_model.Array_eval.edp) ]

(* ----- the on-demand write-delay table ----- *)

let eager_write_delay =
  lazy (Oracle.Periphery.write_delay_table ~cell_flavor:Finfet.Library.Hvt)

(* Levels on the grid, between grid points, and clamped on both sides. *)
let vwl_gen =
  let open QCheck.Gen in
  frequency
    [ (3, float_range 0.30 0.90);
      (1, oneofl (Array.to_list Array_model.Periphery.vwl_grid));
      (1, oneofl [ 0.10; 0.42; 0.72; 1.20 ]) ]

let write_delay_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"on-demand write-delay table equals the eager one at jobs 1, 2, 4"
         (QCheck.make
            ~print:QCheck.Print.(pair int (list float))
            QCheck.Gen.(pair (oneofl [ 1; 2; 4 ]) (list_size (int_range 1 24) vwl_gen)))
         (fun (jobs, vwls) ->
           let eager = Lazy.force eager_write_delay in
           let fresh = Array_model.Periphery.characterize ~lib ~cell_flavor:Finfet.Library.Hvt () in
           let vwls = Array.of_list vwls in
           let on_demand =
             with_jobs jobs (fun () ->
                 Runtime.Pool.parmap ~chunk:1 (Runtime.Pool.default ())
                   (fun vwl -> Array_model.Periphery.write_delay fresh ~vwl)
                   vwls)
           in
           Array.for_all2
             (fun vwl d ->
               Int64.equal (Int64.bits_of_float d)
                 (Int64.bits_of_float (Numerics.Interp.Table1d.eval eager vwl)))
             vwls on_demand));
    case "a cold 16KB optimize simulates at most 2 of the 7 write levels" (fun () ->
        (* The characterization and each level's transient are timed
           under the same span, so its histogram's count counts them. *)
        let calls () =
          List.fold_left
            (fun n (s : Obs.Histogram.snapshot) ->
              if s.Obs.Histogram.name = "periphery.characterize" then
                n + s.Obs.Histogram.count
              else n)
            0 (Obs.Histogram.snapshots ())
        in
        Runtime.Memo.reset_all ();
        let before = calls () in
        let config =
          { Sram_edp.Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 }
        in
        Obs.Control.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.Control.set_enabled false)
          (fun () ->
            ignore (Sram_edp.Framework.optimize ~capacity_bits:(16 * 1024 * 8) ~config ()));
        let transients = calls () - before - 1 in
        Alcotest.(check bool)
          (Printf.sprintf "1 or 2 write transients (%d)" transients)
          true
          (transients >= 1 && transients <= 2)) ]

let () =
  Alcotest.run "array_model"
    [ ("geometry", geometry_tests);
      ("caps", caps_tests);
      ("currents", currents_tests);
      ("components", components_tests);
      ("periphery", periphery_tests);
      ("array_eval", eval_tests);
      ("segmented", segmented_tests);
      ("write_lut", write_delay_tests) ]
