(* Tests of the extension modules: column-transient validation of
   Equation (1), Monte-Carlo yield pinning, process corners, retention
   analysis, and the banked-memory level. *)

open Testutil

let lib = Lazy.force Finfet.Library.default
let nfet_hvt = Finfet.Library.nfet lib Finfet.Library.Hvt
let pfet_hvt = Finfet.Library.pfet lib Finfet.Library.Hvt
let hvt = Finfet.Variation.nominal_cell ~nfet:nfet_hvt ~pfet:pfet_hvt

let column_tests =
  [ case "analytic delay is Equation (1)" (fun () ->
        let cfg = Sram_cell.Column.default_config in
        let cond = Sram_cell.Sram6t.read ~vddc:0.55 () in
        let c = Sram_cell.Column.bl_capacitance ~cell:hvt cfg in
        let i =
          Finfet.Calibration.stack_read_current ~access:nfet_hvt
            ~pull_down:nfet_hvt ~vwl:0.45 ~vbl:0.45 ~vddc:0.55 ~vssc:0.0
        in
        check_close ~tol:1e-6 "cdv/i" (c *. 0.12 /. i)
          (Sram_cell.Column.analytic_delay ~cell:hvt cfg cond));
    case "bl capacitance matches Table 1 (no mux)" (fun () ->
        let cfg = { Sram_cell.Column.default_config with Sram_cell.Column.nr = 64 } in
        let dcaps = Array_model.Caps.device_caps_of ~nfet:nfet_hvt ~pfet:pfet_hvt () in
        let g = Array_model.Geometry.create ~nr:64 ~nc:64 ~n_pre:1 ~n_wr:1 () in
        check_close "table1" (Array_model.Caps.bl dcaps g)
          (Sram_cell.Column.bl_capacitance ~cell:hvt cfg));
    case "transient validates Equation (1) within 10% (64 rows)" (fun () ->
        let r =
          Sram_cell.Column.validate ~cell:hvt Sram_cell.Column.default_config
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        Alcotest.(check bool) "finite" true (Float.is_finite r.Sram_cell.Column.simulated);
        check_within "error" ~lo:(-0.10) ~hi:0.10 r.Sram_cell.Column.relative_error);
    case "negative Gnd keeps the validation tight" (fun () ->
        let r =
          Sram_cell.Column.validate ~cell:hvt Sram_cell.Column.default_config
            (Sram_cell.Sram6t.read ~vddc:0.55 ~vssc:(-0.24) ())
        in
        check_within "error" ~lo:(-0.10) ~hi:0.10 r.Sram_cell.Column.relative_error);
    case "wire resistance adds delay at long bitlines" (fun () ->
        let base =
          { Sram_cell.Column.default_config with Sram_cell.Column.nr = 256 }
        in
        let with_r =
          Sram_cell.Column.validate ~cell:hvt base (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        let without_r =
          Sram_cell.Column.validate ~cell:hvt
            { base with Sram_cell.Column.with_wire_resistance = false }
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        Alcotest.(check bool) "R slows" true
          (with_r.Sram_cell.Column.simulated > without_r.Sram_cell.Column.simulated));
    case "write-path pricing validates while the TG is the bottleneck" (fun () ->
        List.iter
          (fun (nr, n_wr) ->
            let config =
              { Sram_cell.Column.default_config with Sram_cell.Column.nr; n_wr }
            in
            let r = Sram_cell.Column.validate_write ~cell:hvt config in
            check_within "error" ~lo:(-0.25) ~hi:0.25
              r.Sram_cell.Column.relative_error)
          [ (64, 1); (64, 4); (256, 2) ]);
    case "wire RC breaks the write model for strong buffers on long lines" (fun () ->
        let config =
          { Sram_cell.Column.default_config with Sram_cell.Column.nr = 512; n_wr = 8 }
        in
        let r = Sram_cell.Column.validate_write ~cell:hvt config in
        Alcotest.(check bool) "analytic underestimates" true
          (r.Sram_cell.Column.relative_error > 0.3));
    case "analytic write delay follows Table 2" (fun () ->
        (* D = C_BL(N_wr) Vdd / (0.5 N_wr I_ON,TG): more fins drive harder
           but also load the bitline, so the scaling is slightly sublinear
           in 1/N_wr. *)
        let config = { Sram_cell.Column.default_config with Sram_cell.Column.n_wr = 4 } in
        let nfet_lvt = Finfet.Library.nfet lib Finfet.Library.Lvt in
        let pfet_lvt = Finfet.Library.pfet lib Finfet.Library.Lvt in
        let vdd = Finfet.Tech.vdd_nominal in
        let i_tg =
          Finfet.Device.ids nfet_lvt ~vgs:vdd ~vds:(0.5 *. vdd)
          +. Finfet.Device.ids pfet_lvt ~vgs:vdd ~vds:(0.5 *. vdd)
        in
        check_close ~tol:1e-9 "formula"
          (Sram_cell.Column.bl_capacitance ~cell:hvt config *. vdd
           /. (0.5 *. 4.0 *. i_tg))
          (Sram_cell.Column.analytic_write_delay ~cell:hvt config));
    case "segment count converges" (fun () ->
        let cond = Sram_cell.Sram6t.read ~vddc:0.55 () in
        let at segments =
          (Sram_cell.Column.validate ~cell:hvt
             { Sram_cell.Column.default_config with Sram_cell.Column.segments }
             cond).Sram_cell.Column.simulated
        in
        let d8 = at 8 and d16 = at 16 in
        check_close ~tol:0.03 "converged" d8 d16) ]

let minarray_tests =
  [ case "8x4 read: sensing works, every cell retains" (fun () ->
        let r =
          Sram_cell.Minarray.read_experiment ~cell:hvt
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        Alcotest.(check bool) "sensed" true (Float.is_finite r.Sram_cell.Minarray.sensed_delay);
        Alcotest.(check bool) "accessed retains" true r.Sram_cell.Minarray.accessed_retains;
        Alcotest.(check bool) "row mates retain" true r.Sram_cell.Minarray.row_mates_retain;
        Alcotest.(check bool) "unselected retain" true r.Sram_cell.Minarray.unselected_retain;
        (* Short bitlines carry a fixed startup transient, so the error
           bound is loose here; the 32-row slow test tightens it. *)
        check_within "error" ~lo:(-0.1) ~hi:0.45 r.Sram_cell.Minarray.relative_error);
    case "the experiment exercises the sparse DC path" (fun () ->
        let r =
          Sram_cell.Minarray.read_experiment ~cell:hvt
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        Alcotest.(check bool) "large system" true (r.Sram_cell.Minarray.unknowns >= 80));
    case "full-array write: flips the target, spares everyone else" (fun () ->
        let r = Sram_cell.Minarray.write_experiment ~cell:hvt ~vwl:0.55 () in
        Alcotest.(check bool) "flipped" true r.Sram_cell.Minarray.flipped;
        Alcotest.(check bool) "mates survive half-select" true
          r.Sram_cell.Minarray.mates_survive;
        Alcotest.(check bool) "other rows untouched" true
          r.Sram_cell.Minarray.others_survive;
        check_within "delay" ~lo:0.3e-12 ~hi:10e-12 r.Sram_cell.Minarray.write_delay);
    case "full-array write agrees with the isolated-cell LUT" (fun () ->
        let r = Sram_cell.Minarray.write_experiment ~cell:hvt ~vwl:0.55 () in
        let per = Array_model.Periphery.shared ~cell_flavor:Finfet.Library.Hvt in
        let lut = Array_model.Periphery.write_delay per ~vwl:0.55 in
        check_within "ratio" ~lo:0.5 ~hi:2.0 (r.Sram_cell.Minarray.write_delay /. lut));
    case "an under-driven word line cannot write" (fun () ->
        let r = Sram_cell.Minarray.write_experiment ~cell:hvt ~vwl:0.30 () in
        Alcotest.(check bool) "no flip" false r.Sram_cell.Minarray.flipped;
        Alcotest.(check bool) "mates still safe" true r.Sram_cell.Minarray.mates_survive);
    case "WL overdrive shortens the in-array write" (fun () ->
        let slow = Sram_cell.Minarray.write_experiment ~cell:hvt ~vwl:0.45 () in
        let fast = Sram_cell.Minarray.write_experiment ~cell:hvt ~vwl:0.60 () in
        Alcotest.(check bool) "both flip" true
          (slow.Sram_cell.Minarray.flipped && fast.Sram_cell.Minarray.flipped);
        Alcotest.(check bool) "faster" true
          (fast.Sram_cell.Minarray.write_delay < slow.Sram_cell.Minarray.write_delay));
    slow_case "32x2 read converges to the analytic delay within 15%" (fun () ->
        let r =
          Sram_cell.Minarray.read_experiment ~nr:32 ~nc:2 ~cell:hvt
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        check_within "error" ~lo:(-0.1) ~hi:0.15 r.Sram_cell.Minarray.relative_error;
        Alcotest.(check bool) "all retain" true
          (r.Sram_cell.Minarray.accessed_retains
           && r.Sram_cell.Minarray.row_mates_retain
           && r.Sram_cell.Minarray.unselected_retain)) ]

let yield_mc_tests =
  (* Through the pin solve, the one program entry point of the k-sigma
     margin (bench ablation). *)
  let cfg = { Opt.Yield_mc.default_config with Opt.Yield_mc.samples = 10 } in
  let solve config = Opt.Yield_mc.solve ~config ~flavor:Finfet.Library.Hvt () in
  [ case "worst margin is deterministic and memoized" (fun () ->
        let a = solve cfg and b = solve cfg in
        check_close "margin" a.Opt.Yield_mc.achieved_margin b.Opt.Yield_mc.achieved_margin;
        check_close "vddc" a.Opt.Yield_mc.vddc_min b.Opt.Yield_mc.vddc_min;
        check_close "vwl" a.Opt.Yield_mc.vwl_min b.Opt.Yield_mc.vwl_min);
    case "stricter k lowers the worst margin" (fun () ->
        (* A lower (mu - k sigma) at every level pins the rails higher. *)
        let at k = solve { cfg with Opt.Yield_mc.k } in
        let loose = at 1.0 and strict = at 6.0 in
        Alcotest.(check bool) "vddc monotone in k" true
          (strict.Opt.Yield_mc.vddc_min >= loose.Opt.Yield_mc.vddc_min);
        Alcotest.(check bool) "vwl monotone in k" true
          (strict.Opt.Yield_mc.vwl_min >= loose.Opt.Yield_mc.vwl_min);
        Alcotest.(check bool) "some rail rises" true
          (strict.Opt.Yield_mc.vddc_min +. strict.Opt.Yield_mc.vwl_min
           > loose.Opt.Yield_mc.vddc_min +. loose.Opt.Yield_mc.vwl_min));
    case "solved pins satisfy their own constraint" (fun () ->
        let l = solve cfg in
        Alcotest.(check bool) "achieved >= 0" true
          (l.Opt.Yield_mc.achieved_margin >= -0.005);
        check_within "vddc grid" ~lo:Finfet.Tech.vdd_nominal ~hi:0.80
          l.Opt.Yield_mc.vddc_min);
    case "k-sigma (k=3, mu-k sigma >= 0) is weaker than the 35% rule" (fun () ->
        (* The paper's simplified delta = 0.35 Vdd encodes a much higher
           yield bar than raw 3-sigma positivity; MC pins land at or below
           the simplified pins. *)
        let cfg = { Opt.Yield_mc.default_config with Opt.Yield_mc.samples = 10 } in
        let mc = Opt.Yield_mc.solve ~config:cfg ~flavor:Finfet.Library.Hvt () in
        let simplified = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc" true
          (mc.Opt.Yield_mc.vddc_min <= simplified.Opt.Yield.vddc_min);
        Alcotest.(check bool) "vwl" true
          (mc.Opt.Yield_mc.vwl_min <= simplified.Opt.Yield.vwl_min));
    case "injected levels steer the exhaustive search" (fun () ->
        let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
        let levels =
          { Opt.Yield.vddc_min = 0.60; vwl_min = 0.60; hsnm_nominal = 0.2 }
        in
        let r =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~levels ~env
            ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
        in
        check_close "pins used" 0.60
          r.Opt.Exhaustive.best.Opt.Exhaustive.assist.Array_model.Components.vddc) ]

let corners_tests =
  [ case "TT is the identity corner" (fun () ->
        let d = Finfet.Corners.apply Finfet.Corners.TT nfet_hvt in
        check_close "vt" nfet_hvt.Finfet.Device.vt d.Finfet.Device.vt);
    case "FF lowers and SS raises thresholds" (fun () ->
        (* Corners sit at +-3 sigma of the 15 mV die-to-die Vt spread. *)
        let ff = Finfet.Corners.apply Finfet.Corners.FF nfet_hvt in
        let ss = Finfet.Corners.apply Finfet.Corners.SS nfet_hvt in
        check_close "ff" (nfet_hvt.Finfet.Device.vt -. (3.0 *. 0.015))
          ff.Finfet.Device.vt;
        check_close "ss" (nfet_hvt.Finfet.Device.vt +. (3.0 *. 0.015))
          ss.Finfet.Device.vt);
    case "FS treats the polarities oppositely" (fun () ->
        let n = Finfet.Corners.apply Finfet.Corners.FS nfet_hvt in
        let p = Finfet.Corners.apply Finfet.Corners.FS pfet_hvt in
        Alcotest.(check bool) "n fast" true (n.Finfet.Device.vt < nfet_hvt.Finfet.Device.vt);
        Alcotest.(check bool) "p slow" true (p.Finfet.Device.vt > pfet_hvt.Finfet.Device.vt));
    case "FS is the worst read corner, SF the worst write corner" (fun () ->
        let rsnm corner =
          Sram_cell.Margins.read_snm ~points:41
            ~cell:(Finfet.Corners.cell corner ~nfet:nfet_hvt ~pfet:pfet_hvt)
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        let wm corner =
          Sram_cell.Margins.write_margin
            ~cell:(Finfet.Corners.cell corner ~nfet:nfet_hvt ~pfet:pfet_hvt)
            (Sram_cell.Sram6t.write0 ~vwl:0.55 ())
        in
        List.iter
          (fun c ->
            Alcotest.(check bool) "fs worst read" true
              (rsnm Finfet.Corners.FS <= rsnm c +. 1e-9))
          Finfet.Corners.all;
        List.iter
          (fun c ->
            Alcotest.(check bool) "sf worst write" true
              (wm Finfet.Corners.SF <= wm c +. 1e-9))
          Finfet.Corners.all);
    case "FF leaks the most, SS the least" (fun () ->
        let leak corner =
          Sram_cell.Leakage.power
            ~cell:(Finfet.Corners.cell corner ~nfet:nfet_hvt ~pfet:pfet_hvt) ()
        in
        List.iter
          (fun c ->
            Alcotest.(check bool) "ff max" true (leak Finfet.Corners.FF >= leak c);
            Alcotest.(check bool) "ss min" true (leak Finfet.Corners.SS <= leak c))
          Finfet.Corners.all) ]

let retention_tests =
  [ case "retention voltage sits below nominal" (fun () ->
        let v = (Sram_cell.Retention.standby ~cell:hvt ()).Sram_cell.Retention.v_retention in
        check_within "v_ret" ~lo:0.05 ~hi:0.30 v);
    case "at the retention voltage the rule just holds" (fun () ->
        let v = (Sram_cell.Retention.standby ~cell:hvt ()).Sram_cell.Retention.v_retention in
        let snm = Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt (v +. 0.01) in
        Alcotest.(check bool) "holds just above" true (snm >= 0.35 *. (v +. 0.01) -. 2e-3));
    case "standby saves leakage" (fun () ->
        let s = Sram_cell.Retention.standby ~cell:hvt () in
        check_within "savings" ~lo:0.2 ~hi:0.9 s.Sram_cell.Retention.savings;
        Alcotest.(check bool) "rail ordering" true
          (s.Sram_cell.Retention.v_retention <= s.Sram_cell.Retention.v_standby));
    case "HVT retains slightly deeper than LVT" (fun () ->
        let lvt =
          Finfet.Variation.nominal_cell
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Lvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Lvt)
        in
        let vh = (Sram_cell.Retention.standby ~cell:hvt ()).Sram_cell.Retention.v_retention in
        let vl = (Sram_cell.Retention.standby ~cell:lvt ()).Sram_cell.Retention.v_retention in
        Alcotest.(check bool) "ordering" true (vh <= vl +. 1e-3)) ]

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()

let banked_tests =
  [ case "htree constants are positive and plausible" (fun () ->
        let t = Cache_model.Htree.of_technology ~lib in
        check_within "d/m" ~lo:1e-12 ~hi:1e-6 t.Cache_model.Htree.delay_per_m;
        check_within "e/m" ~lo:1e-12 ~hi:1e-9 t.Cache_model.Htree.energy_per_m);
    case "route length is the square-root law" (fun () ->
        check_close "sqrt" 1e-3 (Cache_model.Htree.route_length ~total_area:1e-6));
    case "banking rejects bad bank counts" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Cache_model.Banked.evaluate_banking ~space:Opt.Space.reduced
                  ~env:env_hvt ~capacity_bits:(64 * 1024 * 8)
                  ~method_:Opt.Space.M2 ~banks:3 ());
             false
           with Invalid_argument _ -> true));
    case "totals assemble from the parts" (fun () ->
        let d =
          Cache_model.Banked.evaluate_banking ~space:Opt.Space.reduced
            ~env:env_hvt ~capacity_bits:(16 * 1024 * 8) ~method_:Opt.Space.M2
            ~banks:4 ()
        in
        let bank_m = d.Cache_model.Banked.per_bank.Opt.Exhaustive.best.Opt.Exhaustive.metrics in
        check_close "delay sum"
          (d.Cache_model.Banked.d_htree +. bank_m.Array_model.Array_eval.d_array)
          d.Cache_model.Banked.d_total;
        check_close "edp" (d.Cache_model.Banked.e_total *. d.Cache_model.Banked.d_total)
          d.Cache_model.Banked.edp);
    case "more banks shorten the array component" (fun () ->
        let at banks =
          Cache_model.Banked.evaluate_banking ~space:Opt.Space.reduced
            ~env:env_hvt ~capacity_bits:(64 * 1024 * 8) ~method_:Opt.Space.M2
            ~banks ()
        in
        let b1 = at 1 and b8 = at 8 in
        Alcotest.(check bool) "faster banks" true
          (b8.Cache_model.Banked.d_total -. b8.Cache_model.Banked.d_htree
           < b1.Cache_model.Banked.d_total -. b1.Cache_model.Banked.d_htree));
    case "optimize returns the sweep minimum" (fun () ->
        let best, all =
          Cache_model.Banked.optimize ~space:Opt.Space.reduced ~max_banks:8
            ~env:env_hvt ~capacity_bits:(32 * 1024 * 8) ~method_:Opt.Space.M2 ()
        in
        List.iter
          (fun (d : Cache_model.Banked.bank_design) ->
            Alcotest.(check bool) "minimum" true
              (best.Cache_model.Banked.edp <= d.Cache_model.Banked.edp +. 1e-40))
          all) ]

(* The rows [compare8t] prints: cell -> (EDP in Js, array area in um^2). *)
let printed_comparison ~capacity_bits =
  let text = capture_stdout (fun () -> Sram_edp.Eight_t.print_comparison ~capacity_bits) in
  List.filter_map
    (fun line ->
      let rec before unit = function
        | v :: u :: _ when u = unit -> Some (float_of_string v)
        | _ :: rest -> before unit rest
        | [] -> None
      in
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | name :: tokens -> (
        match (before "Js" tokens, before "um^2" tokens) with
        | Some edp, Some area -> Some (name, (edp, area))
        | _ -> None)
      | [] -> None)
    (String.split_on_char '\n' text)

let eight_t_tests =
  let eight = Sram_cell.Sram8t.of_library lib Finfet.Library.Lvt in
  [ case "8T read stability meets the yield rule at nominal" (fun () ->
        Alcotest.(check bool) "rsnm ok" true
          (Sram_cell.Sram8t.hold_snm eight ~vdd:Finfet.Tech.vdd_nominal
           >= Finfet.Tech.min_margin));
    case "8T leaks more than its 6T core (extra read-port path)" (fun () ->
        let core =
          Finfet.Variation.nominal_cell
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Lvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Lvt)
        in
        let p6 = Sram_cell.Leakage.power ~cell:core () in
        let p8 = Sram_cell.Sram8t.leakage_power eight in
        check_within "extra path" ~lo:(1.05 *. p6) ~hi:(2.0 *. p6) p8);
    case "negative Gnd boosts the 8T read stack" (fun () ->
        let base = Sram_cell.Sram8t.read_current eight () in
        let boosted = Sram_cell.Sram8t.read_current eight ~vssc:(-0.24) () in
        Alcotest.(check bool) "boost" true (boosted > 1.8 *. base));
    case "array comparison ranks 6T-HVT first on EDP" (fun () ->
        let rows = printed_comparison ~capacity_bits:(16384 * 8) in
        let edp name = fst (List.assoc name rows) in
        Alcotest.(check bool) "hvt beats 8t" true
          (edp "6T-HVT-M2" < edp "8T-LVT");
        Alcotest.(check bool) "hvt beats lvt" true
          (edp "6T-HVT-M2" < edp "6T-LVT-M2"));
    case "8T pays the area premium" (fun () ->
        let rows = printed_comparison ~capacity_bits:(4096 * 8) in
        let area name = snd (List.assoc name rows) in
        check_close ~tol:0.02 "1.3x"
          (Sram_cell.Sram8t.area_factor *. area "6T-LVT-M2")
          (area "8T-LVT")) ]

let stat_timing_tests =
  [ case "distribution summary is consistent" (fun () ->
        let d =
          Sram_cell.Stat_timing.read_current_distribution ~n:20
            ~nfet:nfet_hvt ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ()) ()
        in
        let xs = d.Sram_cell.Stat_timing.samples in
        check_increasing "sorted" xs;
        check_close "mu" (Numerics.Stats.mean xs) d.Sram_cell.Stat_timing.mu;
        check_close "sigma" (Numerics.Stats.stddev xs) d.Sram_cell.Stat_timing.sigma);
    case "current distribution is deterministic per seed" (fun () ->
        let run () =
          Sram_cell.Stat_timing.read_current_distribution ~n:20
            ~nfet:nfet_hvt ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ()) ()
        in
        let a = run () and b = run () in
        check_close "mu" a.Sram_cell.Stat_timing.mu b.Sram_cell.Stat_timing.mu);
    case "mean current sits near the nominal stack" (fun () ->
        let d =
          Sram_cell.Stat_timing.read_current_distribution ~n:400
            ~nfet:nfet_hvt ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ()) ()
        in
        let nominal = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 in
        check_close ~tol:0.15 "mu" nominal d.Sram_cell.Stat_timing.mu);
    case "guardband exceeds one and covers the mean" (fun () ->
        let g =
          Sram_cell.Stat_timing.bl_delay_guardband ~cell:hvt
            ~column:Sram_cell.Column.default_config
            ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ()) ()
        in
        Alcotest.(check bool) "derate > 1" true (g.Sram_cell.Stat_timing.derate > 1.0);
        Alcotest.(check bool) "3s > mean" true
          (g.Sram_cell.Stat_timing.k_sigma_delay > g.Sram_cell.Stat_timing.mean_delay));
    case "negative Gnd shrinks the relative guardband" (fun () ->
        let at vssc =
          (Sram_cell.Stat_timing.bl_delay_guardband ~cell:hvt
             ~column:Sram_cell.Column.default_config
             ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
             ())
            .Sram_cell.Stat_timing.derate
        in
        Alcotest.(check bool) "tighter" true (at (-0.24) < at 0.0)) ]

let dcdc_tests =
  [ case "no conversion means no overhead" (fun () ->
        check_close "identity" 1.0
          (Array_model.Dcdc.efficiency ~v_out:Finfet.Tech.vdd_nominal ());
        check_close "zero rail" 1.0 (Array_model.Dcdc.efficiency ~v_out:0.0 ()));
    case "boost rails land between the ratio points" (fun () ->
        (* 550 mV from 450 mV uses the 4/3 ratio (600 mV ideal). *)
        check_close ~tol:1e-6 "eta"
          (0.95 *. (0.550 /. 0.600))
          (Array_model.Dcdc.efficiency ~v_out:0.550 ()));
    case "negative rails use the inverting ratios" (fun () ->
        (* |-240| mV from the 2/3 ratio (300 mV ideal). *)
        check_close ~tol:1e-6 "eta"
          (0.95 *. (0.240 /. 0.300))
          (Array_model.Dcdc.efficiency ~v_out:(-0.240) ()));
    case "overhead is the reciprocal" (fun () ->
        check_close "inverse"
          (1.0 /. Array_model.Dcdc.efficiency ~v_out:0.55 ())
          (Array_model.Dcdc.overhead ~v_out:0.55 ()));
    case "ideal ratio hits are the most efficient" (fun () ->
        let on_ratio = Array_model.Dcdc.efficiency ~v_out:(0.45 *. 1.5) () in
        let off_ratio = Array_model.Dcdc.efficiency ~v_out:0.58 () in
        Alcotest.(check bool) "on-ratio better" true (on_ratio > off_ratio);
        (* An on-ratio conversion loses only the 5% intrinsic loss. *)
        check_close ~tol:1e-9 "peak" 0.95 on_ratio) ]

let quantization_tests =
  [ case "continuous optimum is a lower bound" (fun () ->
        let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt in
        let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt in
        List.iter
          (fun c_load ->
            Alcotest.(check bool) "bound" true
              (Gates.Superbuffer.quantization_penalty ~nfet ~pfet ~c_load
               >= -0.02))
          [ 1e-15; 5e-15; 20e-15; 80e-15 ]);
    case "penalty stays small (sub-5%)" (fun () ->
        let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt in
        let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt in
        List.iter
          (fun c_load ->
            check_within "small" ~lo:(-0.02) ~hi:0.05
              (Gates.Superbuffer.quantization_penalty ~nfet ~pfet ~c_load))
          [ 2e-15; 10e-15; 40e-15 ]) ]

let () =
  Alcotest.run "extensions"
    [ ("column", column_tests);
      ("minarray", minarray_tests);
      ("yield_mc", yield_mc_tests);
      ("corners", corners_tests);
      ("retention", retention_tests);
      ("banked", banked_tests);
      ("eight_t", eight_t_tests);
      ("stat_timing", stat_timing_tests);
      ("dcdc", dcdc_tests);
      ("quantization", quantization_tests) ]
