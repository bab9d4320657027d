(* Tests of the logical-effort gate models, superbuffer designer,
   decoder LUT generator, and the sense amplifier (validated against the
   circuit simulator in test_spice.ml). *)

open Testutil

let lib = Lazy.force Finfet.Library.default
let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt
let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt

let le = Gates.Logical_effort.inverter ~nfet ~pfet ~nfin:1

let logical_effort_tests =
  [ case "tau is positive and sub-picosecond-scale" (fun () ->
        let tau = Gates.Logical_effort.tau ~nfet ~pfet in
        check_within "tau" ~lo:1e-15 ~hi:5e-12 tau);
    case "r_eff is p-limited" (fun () ->
        Alcotest.(check bool) "pfet weaker" true
          (Gates.Logical_effort.r_eff pfet > Gates.Logical_effort.r_eff nfet));
    case "inverter has unit logical effort" (fun () ->
        check_close "g" 1.0 le.Gates.Logical_effort.g;
        check_close "p" 1.0 le.Gates.Logical_effort.p);
    case "inverter input cap scales with fins" (fun () ->
        let inv3 = Gates.Logical_effort.inverter ~nfet ~pfet ~nfin:3 in
        check_close "3x" (3.0 *. le.Gates.Logical_effort.c_in)
          inv3.Gates.Logical_effort.c_in);
    case "nand efforts follow (m+2)/3" (fun () ->
        let n2 = Gates.Logical_effort.nand ~nfet ~pfet ~inputs:2 ~nfin:1 in
        let n3 = Gates.Logical_effort.nand ~nfet ~pfet ~inputs:3 ~nfin:1 in
        check_close "g2" (4.0 /. 3.0) n2.Gates.Logical_effort.g;
        check_close "g3" (5.0 /. 3.0) n3.Gates.Logical_effort.g;
        check_close "p2" 2.0 n2.Gates.Logical_effort.p);
    case "stage delay is g h + p in tau units" (fun () ->
        let tau = Gates.Logical_effort.tau ~nfet ~pfet in
        let d =
          Gates.Logical_effort.stage_delay ~tau le
            ~c_load:(4.0 *. le.Gates.Logical_effort.c_in)
        in
        check_close "fo4" (tau *. 5.0) d);
    case "stage energy is CV^2" (fun () ->
        let e = Gates.Logical_effort.stage_energy le ~c_load:1e-15 ~vdd:0.45 in
        check_close "cv2" ((le.Gates.Logical_effort.c_par +. 1e-15) *. 0.45 *. 0.45) e);
    case "chain sums stages" (fun () ->
        let tau = Gates.Logical_effort.tau ~nfet ~pfet in
        let single =
          Gates.Logical_effort.chain ~tau ~vdd:0.45 ~stages:[ (le, 1e-15) ]
        in
        let double =
          Gates.Logical_effort.chain ~tau ~vdd:0.45 ~stages:[ (le, 0.0); (le, 1e-15) ]
        in
        Alcotest.(check bool) "longer chain is slower" true
          (double.Gates.Logical_effort.delay > single.Gates.Logical_effort.delay)) ]

let final_stage_fins (d : Gates.Superbuffer.t) =
  List.nth d.Gates.Superbuffer.stage_fins (List.length d.Gates.Superbuffer.stage_fins - 1)

let superbuffer_tests =
  [ case "paper driver constants" (fun () ->
        Alcotest.(check int) "27-fin WL driver" 27 Gates.Superbuffer.wl_driver_fins;
        Alcotest.(check int) "20-fin rail driver" 20 Gates.Superbuffer.rail_driver_fins);
    case "default WL driver is 1-3-9-27" (fun () ->
        let d = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
        Alcotest.(check (list int)) "stages" [ 1; 3; 9; 27 ]
          d.Gates.Superbuffer.stage_fins;
        Alcotest.(check int) "final" 27 (final_stage_fins d));
    case "input cap is the first stage's" (fun () ->
        let d = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
        check_close "c_in" le.Gates.Logical_effort.c_in
          (Gates.Superbuffer.input_cap d));
    case "first-stages delay excludes the last stage" (fun () ->
        let d = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
        let partial = Gates.Superbuffer.first_stages_delay d in
        check_within "positive" ~lo:1e-15 ~hi:1e-10 partial);
    case "designed driver fins are sane and quantized" (fun () ->
        let d = Gates.Superbuffer.design ~nfet ~pfet ~c_load:50e-15 in
        List.iter
          (fun f -> Alcotest.(check bool) "fin >= 1" true (f >= 1))
          d.Gates.Superbuffer.stage_fins;
        Alcotest.(check bool) "at most 4 stages" true
          (List.length d.Gates.Superbuffer.stage_fins <= 4);
        check_increasing "monotone sizing"
          (Array.of_list (List.map float_of_int d.Gates.Superbuffer.stage_fins)));
    case "bigger loads get bigger final stages" (fun () ->
        let small = Gates.Superbuffer.design ~nfet ~pfet ~c_load:5e-15 in
        let large = Gates.Superbuffer.design ~nfet ~pfet ~c_load:100e-15 in
        Alcotest.(check bool) "scaling" true
          (final_stage_fins large >= final_stage_fins small)) ]

let decoder_tests =
  [ case "zero bits decode for free" (fun () ->
        let r = Gates.Decoder.decode ~nfet ~pfet ~bits:0 ~c_out:1e-15 in
        check_close_abs "d" 0.0 r.Gates.Decoder.delay;
        check_close_abs "e" 0.0 r.Gates.Decoder.energy);
    case "delay grows with address width" (fun () ->
        let delays =
          Array.init 10 (fun i ->
              (Gates.Decoder.decode ~nfet ~pfet ~bits:(i + 1) ~c_out:1e-15)
                .Gates.Decoder.delay)
        in
        check_increasing "delay(bits)" delays);
    case "delay growth is logarithmic, not linear" (fun () ->
        let d at = (Gates.Decoder.decode ~nfet ~pfet ~bits:at ~c_out:1e-15).Gates.Decoder.delay in
        (* Quadrupling the rows (8 -> 10 bits) must cost far less than 4x. *)
        check_within "buffered growth" ~lo:1.0 ~hi:1.6 (d 10 /. d 8));
    case "energy grows with address width" (fun () ->
        let energies =
          Array.init 10 (fun i ->
              (Gates.Decoder.decode ~nfet ~pfet ~bits:(i + 1) ~c_out:1e-15)
                .Gates.Decoder.energy)
        in
        check_increasing "energy(bits)" energies);
    case "characterize covers 0..max" (fun () ->
        let lut = Gates.Decoder.characterize ~nfet ~pfet ~max_bits:10 ~c_out:1e-15 in
        Alcotest.(check int) "length" 11 (Array.length lut));
    case "bigger output load costs delay" (fun () ->
        let small = Gates.Decoder.decode ~nfet ~pfet ~bits:6 ~c_out:1e-15 in
        let large = Gates.Decoder.decode ~nfet ~pfet ~bits:6 ~c_out:40e-15 in
        Alcotest.(check bool) "load" true
          (large.Gates.Decoder.delay > small.Gates.Decoder.delay)) ]

let sense_amp_tests =
  [ case "node cap and gm are positive" (fun () ->
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        check_within "cap" ~lo:1e-18 ~hi:1e-14 (Gates.Sense_amp.node_cap sa);
        check_within "gm" ~lo:1e-9 ~hi:1e-2 (Gates.Sense_amp.gm sa));
    case "delay decreases with input split" (fun () ->
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        let d1 = Gates.Sense_amp.delay sa ~delta_v:0.060 in
        let d2 = Gates.Sense_amp.delay sa ~delta_v:0.120 in
        Alcotest.(check bool) "smaller split slower" true (d1 > d2));
    case "delay is logarithmic in the split" (fun () ->
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        let tau = Gates.Sense_amp.node_cap sa /. Gates.Sense_amp.gm sa in
        let d1 = Gates.Sense_amp.delay sa ~delta_v:0.060 in
        let d2 = Gates.Sense_amp.delay sa ~delta_v:0.120 in
        check_close ~tol:1e-6 "ln 2 gap" (tau *. log 2.0) (d1 -. d2));
    case "analytic delay agrees with the simulated latch" (fun () ->
        (* Regeneration time constant from the transient: measure how long
           the latch takes to widen its split from dv to 2 dv and compare
           against C/gm ln 2. *)
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        let netlist, a, b = Gate_sim.build_sense_amp sa in
        let vdd = Finfet.Tech.vdd_nominal in
        let tr =
          Spice.Transient.run ~t_stop:40e-12
            ~ic:[ (a, (0.5 *. vdd) +. 0.01); (b, (0.5 *. vdd) -. 0.01) ]
            netlist
        in
        let times = tr.Spice.Transient.times in
        let va = Spice.Transient.node_trace tr a in
        let vb = Spice.Transient.node_trace tr b in
        let split k = va.(k) -. vb.(k) in
        let find_split target =
          let rec go k =
            if k >= Array.length times then None
            else if split k >= target then Some times.(k)
            else go (k + 1)
          in
          go 0
        in
        (match (find_split 0.02, find_split 0.04) with
         | Some t1, Some t2 ->
           let tau_model = Gates.Sense_amp.node_cap sa /. Gates.Sense_amp.gm sa in
           let tau_sim = (t2 -. t1) /. log 2.0 in
           check_within "tau ratio" ~lo:0.4 ~hi:2.5 (tau_sim /. tau_model)
         | _ -> Alcotest.fail "latch did not regenerate"));
    case "energy scales with vdd^2" (fun () ->
        let sa = Gates.Sense_amp.default ~nfet ~pfet in
        check_close "quadratic"
          (4.0 *. Gates.Sense_amp.energy sa ~vdd:0.45)
          (Gates.Sense_amp.energy sa ~vdd:0.90)) ]

let gate_sim_tests =
  [ case "inverter chain switches and has finite delay" (fun () ->
        let built =
          Gate_sim.build_inverter_chain ~nfet ~pfet ~fins:[ 1; 3 ]
            ~c_load:2e-15
        in
        let d = Gate_sim.measure_delay built in
        check_within "delay" ~lo:1e-13 ~hi:1e-10 d);
    case "nand2 stage switches" (fun () ->
        let built =
          Gate_sim.build_nand2_stage ~nfet ~pfet ~nfin:1 ~c_load:2e-15
        in
        check_within "delay" ~lo:1e-13 ~hi:1e-10
          (Gate_sim.measure_delay built));
    case "logical effort matches the transistor-level superbuffer" (fun () ->
        (* The paper: the driver design is "derived analytically and
           verified by SPICE simulations" — this is that check. *)
        let driver = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
        List.iter
          (fun c_load ->
            let sim = Gate_sim.superbuffer_simulated_delay driver ~c_load in
            let model = Gate_sim.superbuffer_model_delay driver ~c_load in
            check_within "sim/model" ~lo:0.6 ~hi:1.4 (sim /. model))
          [ 5e-15; 20e-15; 50e-15 ]);
    case "simulated delay grows with load" (fun () ->
        let driver = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
        let d5 = Gate_sim.superbuffer_simulated_delay driver ~c_load:5e-15 in
        let d50 = Gate_sim.superbuffer_simulated_delay driver ~c_load:50e-15 in
        Alcotest.(check bool) "monotone" true (d50 > 1.5 *. d5));
    case "longer chains invert accordingly (odd vs even switch direction)" (fun () ->
        (* Both parities must still produce a measurable delay. *)
        List.iter
          (fun fins ->
            let built =
              Gate_sim.build_inverter_chain ~nfet ~pfet ~fins ~c_load:1e-15
            in
            check_within "delay" ~lo:1e-13 ~hi:1e-10
              (Gate_sim.measure_delay built))
          [ [ 1 ]; [ 1; 2 ]; [ 1; 2; 4 ] ]) ]

let decoder_sim_tests =
  [ case "structural decoder path switches at every width" (fun () ->
        List.iter
          (fun bits ->
            check_within "delay" ~lo:1e-12 ~hi:1e-10
              (Gate_sim.decoder_simulated_delay ~nfet ~pfet ~bits
                 ~c_out:1e-15))
          [ 2; 4; 6 ]);
    case "LE decoder LUT tracks the transistor-level path within 3x" (fun () ->
        (* The LUT assumes optimally inserted buffers; the structural path
           is minimally sized, so it bounds the model from above. *)
        List.iter
          (fun bits ->
            let sim =
              Gate_sim.decoder_simulated_delay ~nfet ~pfet ~bits ~c_out:1e-15
            in
            let model =
              (Gates.Decoder.decode ~nfet ~pfet ~bits ~c_out:1e-15).Gates.Decoder.delay
            in
            check_within "ratio" ~lo:1.0 ~hi:3.0 (sim /. model))
          [ 2; 4; 6 ]);
    case "structural growth with width is logarithmic, like the model" (fun () ->
        let d bits =
          Gate_sim.decoder_simulated_delay ~nfet ~pfet ~bits ~c_out:1e-15
        in
        (* 16x the rows costs well under 2x the decode time. *)
        check_within "log growth" ~lo:0.8 ~hi:2.0 (d 6 /. d 2)) ]

let sa_offset_tests =
  [ case "trip point sits mid-supply" (fun () ->
        check_within "trip" ~lo:0.15 ~hi:0.30 (Gates.Sa_offset.trip_point ~nfet ~pfet));
    case "identical devices have zero offset" (fun () ->
        let t1 = Gates.Sa_offset.trip_point ~nfet ~pfet in
        let t2 = Gates.Sa_offset.trip_point ~nfet ~pfet in
        check_close_abs ~tol:1e-6 "same" 0.0 (t1 -. t2));
    case "mismatch produces a near-zero-mean offset distribution" (fun () ->
        let s = Gates.Sa_offset.analyze ~n:60 ~nfet ~pfet () in
        check_within "mean" ~lo:(-0.01) ~hi:0.01 s.Gates.Sa_offset.mean;
        Alcotest.(check bool) "spread" true (s.Gates.Sa_offset.sigma > 0.005));
    case "required swing brackets the paper's 120 mV" (fun () ->
        let s = Gates.Sa_offset.analyze ~n:150 ~nfet ~pfet () in
        check_within "dvs" ~lo:0.080 ~hi:0.170 s.Gates.Sa_offset.required_swing);
    case "offset scales with the mismatch sigma" (fun () ->
        (* [analyze]'s latch offset, at a chosen sigma-Vt. *)
        let offset_sigma sigma_vt =
          let rng = Numerics.Rng.create ~seed:23 in
          Numerics.Stats.stddev
            (Array.init 60 (fun _ ->
                 let sample d = Finfet.Variation.sample_device ~sigma_vt rng d in
                 let trip_a = Gates.Sa_offset.trip_point ~nfet:(sample nfet) ~pfet:(sample pfet) in
                 let trip_b = Gates.Sa_offset.trip_point ~nfet:(sample nfet) ~pfet:(sample pfet) in
                 trip_a -. trip_b))
        in
        Alcotest.(check bool) "scales" true (offset_sigma 0.030 > 3.0 *. offset_sigma 0.005)) ]

let () =
  Alcotest.run "gates"
    [ ("logical_effort", logical_effort_tests);
      ("superbuffer", superbuffer_tests);
      ("decoder", decoder_tests);
      ("sense_amp", sense_amp_tests);
      ("gate_sim", gate_sim_tests);
      ("decoder_sim", decoder_sim_tests);
      ("sa_offset", sa_offset_tests) ]
