(* Tests of the workload-trace extension and the thermal derating model. *)

open Testutil

let trace_tests =
  [ case "generation is deterministic per seed" (fun () ->
        let p = Workload.Trace.Uniform { activity = 0.5; read_fraction = 0.5 } in
        let a = Workload.Trace.generate ~seed:3 p ~length:500 in
        let b = Workload.Trace.generate ~seed:3 p ~length:500 in
        Alcotest.(check bool) "equal" true (a = b));
    case "uniform profile hits its parameters" (fun () ->
        let p = Workload.Trace.Uniform { activity = 0.6; read_fraction = 0.8 } in
        let s = Workload.Trace.characterize (Workload.Trace.generate ~seed:4 p ~length:50_000) in
        check_within "alpha" ~lo:0.58 ~hi:0.62 s.Workload.Trace.alpha;
        check_within "beta" ~lo:0.78 ~hi:0.82 s.Workload.Trace.beta);
    case "counts add up" (fun () ->
        let p = Workload.Trace.Uniform { activity = 0.3; read_fraction = 0.5 } in
        let t = Workload.Trace.generate ~seed:5 p ~length:1000 in
        let s = Workload.Trace.characterize t in
        Alcotest.(check int) "sum" 1000
          (s.Workload.Trace.reads + s.Workload.Trace.writes + s.Workload.Trace.idles);
        Alcotest.(check int) "cycles" 1000 s.Workload.Trace.cycles);
    case "bursty profile has the right duty cycle" (fun () ->
        let p = Workload.Trace.Bursty { burst = 10; idle = 30; read_fraction = 1.0 } in
        let s = Workload.Trace.characterize (Workload.Trace.generate ~seed:6 p ~length:4000) in
        check_close ~tol:1e-6 "duty" 0.25 s.Workload.Trace.alpha;
        check_close "all reads" 1.0 s.Workload.Trace.beta);
    case "phased profiles mix their segments" (fun () ->
        let p =
          Workload.Trace.Phased
            [ (Workload.Trace.Uniform { activity = 1.0; read_fraction = 1.0 }, 100);
              (Workload.Trace.Uniform { activity = 0.0; read_fraction = 0.5 }, 100) ]
        in
        let s = Workload.Trace.characterize (Workload.Trace.generate ~seed:7 p ~length:2000) in
        check_close ~tol:1e-6 "half active" 0.5 s.Workload.Trace.alpha);
    case "an all-idle trace defaults beta to 0.5" (fun () ->
        let p = Workload.Trace.Uniform { activity = 0.0; read_fraction = 0.9 } in
        let s = Workload.Trace.characterize (Workload.Trace.generate p ~length:100) in
        check_close "beta" 0.5 s.Workload.Trace.beta;
        check_close_abs "alpha" 0.0 s.Workload.Trace.alpha);
    case "named suite covers the corners" (fun () ->
        Alcotest.(check int) "five profiles" 5 (List.length Workload.Trace.named_profiles)) ]

let sensitivity_tests =
  [ case "study returns one row per named profile" (fun () ->
        let rows = Workload.Sensitivity.study ~length:2_000 ~capacity_bits:(1024 * 8) () in
        Alcotest.(check int) "rows" (List.length Workload.Trace.named_profiles)
          (List.length rows));
    case "low-activity workloads amplify the HVT advantage" (fun () ->
        let rows = Workload.Sensitivity.study ~length:5_000 ~capacity_bits:(4096 * 8) () in
        let adv name =
          (List.find
             (fun (r : Workload.Sensitivity.study_row) ->
               r.Workload.Sensitivity.name = name)
             rows)
            .Workload.Sensitivity.hvt_advantage
        in
        Alcotest.(check bool) "idle >> paper" true
          (adv "low-activity" > adv "paper" +. 0.15)) ]

let lib = Lazy.force Finfet.Library.default
let nfet_hvt = Finfet.Library.nfet lib Finfet.Library.Hvt

let thermal_tests =
  [ case "reference temperature is the identity" (fun () ->
        let d = Finfet.Thermal.at_temperature ~celsius:Finfet.Thermal.t_ref_celsius nfet_hvt in
        check_close "vt" nfet_hvt.Finfet.Device.vt d.Finfet.Device.vt;
        check_close "beta" nfet_hvt.Finfet.Device.beta d.Finfet.Device.beta;
        check_close "swing" nfet_hvt.Finfet.Device.s_smooth d.Finfet.Device.s_smooth);
    case "heat lowers Vt and drive, softens the swing" (fun () ->
        let hot = Finfet.Thermal.at_temperature ~celsius:125.0 nfet_hvt in
        Alcotest.(check bool) "vt down" true (hot.Finfet.Device.vt < nfet_hvt.Finfet.Device.vt);
        Alcotest.(check bool) "beta down" true (hot.Finfet.Device.beta < nfet_hvt.Finfet.Device.beta);
        Alcotest.(check bool) "swing up" true
          (hot.Finfet.Device.s_smooth > nfet_hvt.Finfet.Device.s_smooth));
    case "vt shift follows the -0.7 mV/K coefficient" (fun () ->
        let hot = Finfet.Thermal.at_temperature ~celsius:125.0 nfet_hvt in
        check_close ~tol:1e-9 "dvt"
          (nfet_hvt.Finfet.Device.vt +. (-0.7e-3 *. 100.0))
          hot.Finfet.Device.vt);
    case "leakage grows strongly with temperature" (fun () ->
        let leak celsius =
          let f = Finfet.Thermal.at_temperature ~celsius in
          let cell =
            Finfet.Variation.nominal_cell ~nfet:(f nfet_hvt)
              ~pfet:(f (Finfet.Library.pfet lib Finfet.Library.Hvt))
          in
          Sram_cell.Leakage.power ~cell ()
        in
        check_within "85C" ~lo:5.0 ~hi:100.0 (leak 85.0 /. leak 25.0);
        Alcotest.(check bool) "monotone" true (leak 125.0 > leak 85.0));
    case "the LVT/HVT leakage ratio narrows when hot" (fun () ->
        let ratio celsius =
          let f = Finfet.Thermal.at_temperature ~celsius in
          let cell flavor =
            Finfet.Variation.nominal_cell
              ~nfet:(f (Finfet.Library.nfet lib flavor))
              ~pfet:(f (Finfet.Library.pfet lib flavor))
          in
          Sram_cell.Leakage.power ~cell:(cell Finfet.Library.Lvt) ()
          /. Sram_cell.Leakage.power ~cell:(cell Finfet.Library.Hvt) ()
        in
        Alcotest.(check bool) "narrows" true (ratio 125.0 < ratio 25.0));
    case "out-of-range temperatures are rejected" (fun () ->
        Alcotest.(check bool) "asserts" true
          (try
             ignore (Finfet.Thermal.at_temperature ~celsius:200.0 nfet_hvt);
             false
           with Assert_failure _ -> true)) ]

let () =
  Alcotest.run "workload_thermal"
    [ ("trace", trace_tests);
      ("sensitivity", sensitivity_tests);
      ("thermal", thermal_tests) ]
