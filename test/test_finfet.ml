(* Tests of the calibrated 7nm FinFET device model: every anchor the
   paper states must hold, plus physical sanity of the I-V surface. *)

open Testutil

let lib = Lazy.force Finfet.Library.default
let nfet_hvt = Finfet.Library.nfet lib Finfet.Library.Hvt
let nfet_lvt = Finfet.Library.nfet lib Finfet.Library.Lvt
let pfet_hvt = Finfet.Library.pfet lib Finfet.Library.Hvt
let pfet_lvt = Finfet.Library.pfet lib Finfet.Library.Lvt

let tech_tests =
  [ case "nominal supply is 450 mV" (fun () ->
        check_close "vdd" 0.450 Finfet.Tech.vdd_nominal);
    case "margin rule is 35% of Vdd" (fun () ->
        check_close "delta" (0.35 *. 0.45) Finfet.Tech.min_margin);
    case "cell geometry follows the layout" (fun () ->
        check_close "width" (5.0 *. 43e-9) Finfet.Tech.cell_width;
        check_close "height" (0.4 *. Finfet.Tech.cell_width) Finfet.Tech.cell_height);
    case "wire capacitance of one cell width" (fun () ->
        (* 5 x 43nm x 0.17 fF/um = 36.55 aF *)
        check_close ~tol:1e-6 "c_width" 36.55e-18 Finfet.Tech.c_width;
        check_close ~tol:1e-6 "c_height" (0.4 *. 36.55e-18) Finfet.Tech.c_height);
    case "sense swing is 120 mV" (fun () ->
        check_close "dvs" 0.120 Finfet.Tech.delta_v_sense) ]

let device_tests =
  [ case "zero current at vds = 0" (fun () ->
        check_close_abs "ids0" 0.0 (Finfet.Device.ids nfet_hvt ~vgs:0.45 ~vds:0.0));
    case "current monotone in vgs" (fun () ->
        let samples =
          Array.init 30 (fun i ->
              Finfet.Device.ids nfet_hvt ~vgs:(0.02 *. float_of_int i) ~vds:0.45)
        in
        check_increasing ~strict:true "ids(vgs)" samples);
    case "current monotone in vds" (fun () ->
        let samples =
          Array.init 30 (fun i ->
              Finfet.Device.ids nfet_hvt ~vgs:0.45 ~vds:(0.02 *. float_of_int (i + 1)))
        in
        check_increasing ~strict:true "ids(vds)" samples);
    case "saturation flattens the vds dependence" (fun () ->
        let i1 = Finfet.Device.ids nfet_lvt ~vgs:0.45 ~vds:0.40 in
        let i2 = Finfet.Device.ids nfet_lvt ~vgs:0.45 ~vds:0.45 in
        check_within "saturated" ~lo:0.97 ~hi:1.0 (i1 /. i2));
    case "fin count scales current linearly" (fun () ->
        let i1 =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:1 ~vg:0.45 ~vd:0.45 ~vs:0.0
        in
        let i4 =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:4 ~vg:0.45 ~vd:0.45 ~vs:0.0
        in
        check_close "4 fins" (4.0 *. i1) i4);
    case "reverse conduction is antisymmetric" (fun () ->
        let fwd =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:1 ~vg:0.45 ~vd:0.3 ~vs:0.1
        in
        let rev =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:1 ~vg:0.45 ~vd:0.1 ~vs:0.3
        in
        (* Swapping drain and source re-references vgs to the new source,
           so magnitudes match only when the gate overdrive does; check the
           sign discipline and the exact symmetric case. *)
        Alcotest.(check bool) "signs" true (fwd > 0.0 && rev < 0.0);
        let rev_sym =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:1 ~vg:0.65 ~vd:0.1 ~vs:0.3
        in
        let fwd_sym =
          Finfet.Device.drain_source_current nfet_hvt ~nfin:1 ~vg:0.65 ~vd:0.3 ~vs:0.1
        in
        check_close "antisymmetric" fwd_sym (-.rev_sym));
    case "pfet conducts with source high" (fun () ->
        let i =
          Finfet.Device.drain_source_current pfet_lvt ~nfin:1 ~vg:0.0 ~vd:0.0 ~vs:0.45
        in
        Alcotest.(check bool) "negative ids (source to drain)" true (i < 0.0));
    case "pfet off with gate high" (fun () ->
        let i =
          Finfet.Device.drain_source_current pfet_lvt ~nfin:1 ~vg:0.45 ~vd:0.0 ~vs:0.45
        in
        check_within "leakage only" ~lo:(-1e-8) ~hi:0.0 i);
    case "subthreshold swing is physically plausible" (fun () ->
        check_within "SS hvt" ~lo:55.0 ~hi:90.0 (Finfet.Device.subthreshold_swing nfet_hvt);
        check_within "SS lvt" ~lo:55.0 ~hi:90.0 (Finfet.Device.subthreshold_swing nfet_lvt));
    case "with_vt replaces the threshold" (fun () ->
        let d = Finfet.Device.with_vt nfet_hvt 0.123 in
        check_close "vt" 0.123 d.Finfet.Device.vt;
        check_close "beta kept" nfet_hvt.Finfet.Device.beta d.Finfet.Device.beta) ]

let ids_nonneg_prop =
  QCheck.Test.make ~name:"ids is nonnegative and finite over the bias box"
    ~count:300
    QCheck.(pair (float_range 0.0 0.8) (float_range 0.0 0.8))
    (fun (vgs, vds) ->
      let i = Finfet.Device.ids nfet_hvt ~vgs ~vds in
      i >= 0.0 && Float.is_finite i)

let calibration_tests =
  [ case "HVT read-current fit anchor at the reference point" (fun () ->
        let target = Finfet.Calibration.paper_read_current ~vddc:0.550 ~vssc:0.0 in
        let got = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.550 ~vssc:0.0 in
        check_close ~tol:1e-3 "i_read(550,0)" target got);
    case "paper fit formula" (fun () ->
        check_close "fit" (9.5e-5 *. (0.215 ** 1.3))
          (Finfet.Calibration.paper_read_current ~vddc:0.550 ~vssc:0.0);
        check_close_abs "below threshold" 0.0
          (Finfet.Calibration.paper_read_current ~vddc:0.3 ~vssc:0.0));
    case "ION ratio LVT/HVT = 2" (fun () ->
        check_close ~tol:1e-3 "ion ratio" 2.0
          (Finfet.Device.i_on nfet_lvt () /. Finfet.Device.i_on nfet_hvt ()));
    case "IOFF ratio LVT/HVT ~ 20.6 (the paper's leakage anchors)" (fun () ->
        check_within "ioff ratio" ~lo:19.5 ~hi:21.5
          (Finfet.Device.i_off nfet_lvt () /. Finfet.Device.i_off nfet_hvt ()));
    case "ON/OFF improvement ~ 10x" (fun () ->
        check_within "on/off" ~lo:9.0 ~hi:11.5
          (Finfet.Device.on_off_ratio nfet_hvt () /. Finfet.Device.on_off_ratio nfet_lvt ()));
    case "HVT threshold is the paper's 335 mV" (fun () ->
        check_close "vt" 0.335 nfet_hvt.Finfet.Device.vt);
    case "LVT threshold is below HVT" (fun () ->
        Alcotest.(check bool) "ordering" true
          (nfet_lvt.Finfet.Device.vt < nfet_hvt.Finfet.Device.vt));
    case "alpha is the paper's 1.3 exponent" (fun () ->
        check_close "alpha" 1.3 nfet_hvt.Finfet.Device.alpha);
    case "pfet drive ratio" (fun () ->
        check_close "ratio" Finfet.Calibration.pfet_strength_ratio
          (pfet_hvt.Finfet.Device.beta /. nfet_hvt.Finfet.Device.beta));
    case "negative Gnd boosts the stack current" (fun () ->
        let i0 = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.550 ~vssc:0.0 in
        let i1 = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.550 ~vssc:(-0.240) in
        (* Paper quotes 4.3x; its own fit gives 2.65x; the simulated stack
           (access transistor included) lands between. *)
        check_within "boost factor" ~lo:2.5 ~hi:4.5 (i1 /. i0));
    case "stack current monotone in vssc depth" (fun () ->
        let samples =
          Array.init 9 (fun i ->
              Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.550
                ~vssc:(-0.030 *. float_of_int i))
        in
        check_increasing ~strict:true "i_read(|vssc|)" samples);
    case "stack current zero when bitline at cell ground" (fun () ->
        check_close_abs "no drive" 0.0
          (Finfet.Calibration.stack_read_current ~access:nfet_hvt
             ~pull_down:nfet_hvt ~vwl:0.45 ~vbl:0.0 ~vddc:0.45 ~vssc:0.0));
    case "power-law refit of the simulated stack is clean" (fun () ->
        let fit = Finfet.Library.fit_read_current lib Finfet.Library.Hvt in
        check_within "a" ~lo:1.1 ~hi:1.7 fit.Numerics.Fit.a;
        check_within "rms" ~lo:0.0 ~hi:0.02 fit.Numerics.Fit.rms_error);
    case "flavor string round trip" (fun () ->
        Alcotest.(check (option string)) "lvt" (Some "LVT")
          (Option.map Finfet.Library.flavor_to_string
             (Finfet.Library.flavor_of_string "lvt"));
        Alcotest.(check bool) "bad" true (Finfet.Library.flavor_of_string "xvt" = None)) ]

let variation_tests =
  [ case "sampling is deterministic per seed" (fun () ->
        let s1 =
          Finfet.Variation.sample_cell (Numerics.Rng.create ~seed:11)
            ~nfet:nfet_hvt ~pfet:pfet_hvt
        in
        let s2 =
          Finfet.Variation.sample_cell (Numerics.Rng.create ~seed:11)
            ~nfet:nfet_hvt ~pfet:pfet_hvt
        in
        check_close "same vt" s1.Finfet.Variation.pull_up_l.Finfet.Device.vt
          s2.Finfet.Variation.pull_up_l.Finfet.Device.vt);
    case "sampled thresholds stay positive" (fun () ->
        let rng = Numerics.Rng.create ~seed:12 in
        for _ = 1 to 200 do
          let d = Finfet.Variation.sample_device ~sigma_vt:0.2 rng nfet_hvt in
          Alcotest.(check bool) "positive vt" true (d.Finfet.Device.vt > 0.0)
        done);
    case "sample spread matches sigma" (fun () ->
        let rng = Numerics.Rng.create ~seed:13 in
        let vts =
          Array.init 3000 (fun _ ->
              (Finfet.Variation.sample_device ~sigma_vt:0.02 rng nfet_hvt).Finfet.Device.vt)
        in
        check_within "mu" ~lo:0.333 ~hi:0.337 (Numerics.Stats.mean vts);
        check_within "sigma" ~lo:0.018 ~hi:0.022 (Numerics.Stats.stddev vts));
    case "nominal cell carries the nominal devices" (fun () ->
        let c = Finfet.Variation.nominal_cell ~nfet:nfet_hvt ~pfet:pfet_hvt in
        check_close "pd vt" nfet_hvt.Finfet.Device.vt
          c.Finfet.Variation.pull_down_l.Finfet.Device.vt;
        check_close "pu vt" pfet_hvt.Finfet.Device.vt
          c.Finfet.Variation.pull_up_r.Finfet.Device.vt) ]

let () =
  Alcotest.run "finfet"
    [ ("tech", tech_tests);
      ("device", device_tests @ [ QCheck_alcotest.to_alcotest ids_nonneg_prop ]);
      ("calibration", calibration_tests);
      ("variation", variation_tests) ]
