(* Tests of the functional SRAM macro: memory semantics, cost accounting
   that reconciles with the analytical model, and trace playback. *)

open Testutil

let make ?(capacity = 1024 * 8) () =
  Sram_macro.Macro.create_optimized ~capacity_bits:capacity ~flavor:Finfet.Library.Hvt ~method_:Opt.Space.M2 ()

let shared = make ()

let functional_tests =
  [ case "write then read returns the data" (fun () ->
        let m = shared in
        ignore (Sram_macro.Macro.write m ~addr:3 ~data:0x123456789ABCDEFL);
        let r = Sram_macro.Macro.read m ~addr:3 in
        Alcotest.(check int64) "roundtrip" 0x123456789ABCDEFL r.Sram_macro.Macro.data);
    case "distinct addresses hold distinct data" (fun () ->
        let m = shared in
        ignore (Sram_macro.Macro.write m ~addr:0 ~data:1L);
        ignore (Sram_macro.Macro.write m ~addr:1 ~data:2L);
        ignore
          (Sram_macro.Macro.write m
             ~addr:(Sram_macro.Macro.words m - 1)
             ~data:3L);
        Alcotest.(check int64) "a0" 1L (Sram_macro.Macro.read m ~addr:0).Sram_macro.Macro.data;
        Alcotest.(check int64) "a1" 2L (Sram_macro.Macro.read m ~addr:1).Sram_macro.Macro.data;
        Alcotest.(check int64) "last" 3L
          (Sram_macro.Macro.read m ~addr:(Sram_macro.Macro.words m - 1)).Sram_macro.Macro.data);
    case "data survives other traffic" (fun () ->
        let m = shared in
        ignore (Sram_macro.Macro.write m ~addr:7 ~data:0x55L);
        for addr = 20 to 40 do
          ignore (Sram_macro.Macro.write m ~addr ~data:0xFFL)
        done;
        Sram_macro.Macro.idle m;
        Alcotest.(check int64) "retained" 0x55L
          (Sram_macro.Macro.read m ~addr:7).Sram_macro.Macro.data);
    case "writes mask to the word width" (fun () ->
        let m = shared in
        let r = Sram_macro.Macro.write m ~addr:2 ~data:(-1L) in
        let bits = Sram_macro.Macro.word_bits m in
        if bits < 64 then
          Alcotest.(check int64) "masked"
            Int64.(sub (shift_left 1L bits) 1L)
            r.Sram_macro.Macro.data
        else Alcotest.(check int64) "full" (-1L) r.Sram_macro.Macro.data);
    case "out-of-range addresses are rejected" (fun () ->
        let m = shared in
        Alcotest.(check bool) "raises" true
          (try ignore (Sram_macro.Macro.read m ~addr:(Sram_macro.Macro.words m)); false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "negative" true
          (try ignore (Sram_macro.Macro.read m ~addr:(-1)); false
           with Invalid_argument _ -> true));
    case "power-up contents are reproducible per seed" (fun () ->
        let a = make () and b = make () in
        Alcotest.(check int64) "same garbage"
          (Sram_macro.Macro.read a ~addr:5).Sram_macro.Macro.data
          (Sram_macro.Macro.read b ~addr:5).Sram_macro.Macro.data);
    case "capacity bookkeeping" (fun () ->
        let m = shared in
        Alcotest.(check int) "bits" (1024 * 8) (Sram_macro.Macro.capacity_bits m);
        Alcotest.(check int) "words x width" (1024 * 8)
          (Sram_macro.Macro.words m * Sram_macro.Macro.word_bits m)) ]

let accounting_tests =
  [ case "per-op energies accumulate exactly" (fun () ->
        let m = make () in
        Sram_macro.Macro.reset_stats m;
        let e1 = (Sram_macro.Macro.write m ~addr:0 ~data:9L).Sram_macro.Macro.energy in
        let e2 = (Sram_macro.Macro.read m ~addr:0).Sram_macro.Macro.energy in
        let s = Sram_macro.Macro.stats m in
        check_close "sum" (e1 +. e2) s.Sram_macro.Macro.total_energy;
        Alcotest.(check int) "reads" 1 s.Sram_macro.Macro.reads;
        Alcotest.(check int) "writes" 1 s.Sram_macro.Macro.writes);
    case "idle cycles cost leakage only" (fun () ->
        let m = make () in
        Sram_macro.Macro.reset_stats m;
        Sram_macro.Macro.idle m;
        let s = Sram_macro.Macro.stats m in
        check_close_abs "no switching" 0.0 s.Sram_macro.Macro.switching_energy;
        Alcotest.(check bool) "leaks" true (s.Sram_macro.Macro.leakage_energy > 0.0));
    case "leakage accrues as P_leak x elapsed" (fun () ->
        let m = make () in
        Sram_macro.Macro.reset_stats m;
        for _ = 1 to 10 do
          Sram_macro.Macro.idle m
        done;
        ignore (Sram_macro.Macro.read m ~addr:1);
        let s = Sram_macro.Macro.stats m in
        (* elapsed and leakage must be proportional with the array's total
           leakage power as the constant. *)
        let p = s.Sram_macro.Macro.leakage_energy /. s.Sram_macro.Macro.elapsed in
        let per = Array_model.Periphery.shared ~cell_flavor:Finfet.Library.Hvt in
        check_close ~tol:1e-9 "power"
          (float_of_int (Sram_macro.Macro.capacity_bits m)
           *. per.Array_model.Periphery.p_leak_cell)
          p);
    case "worst delay tracks the slowest op" (fun () ->
        let m = make () in
        Sram_macro.Macro.reset_stats m;
        let r = Sram_macro.Macro.read m ~addr:0 in
        let w = Sram_macro.Macro.write m ~addr:0 ~data:0L in
        let s = Sram_macro.Macro.stats m in
        check_close "worst"
          (max r.Sram_macro.Macro.delay w.Sram_macro.Macro.delay)
          s.Sram_macro.Macro.worst_op_delay);
    case "reset clears counters but not contents" (fun () ->
        let m = make () in
        ignore (Sram_macro.Macro.write m ~addr:11 ~data:77L);
        Sram_macro.Macro.reset_stats m;
        let s = Sram_macro.Macro.stats m in
        Alcotest.(check int) "zero ops" 0 (s.Sram_macro.Macro.reads + s.Sram_macro.Macro.writes);
        Alcotest.(check int64) "content kept" 77L
          (Sram_macro.Macro.read m ~addr:11).Sram_macro.Macro.data) ]

let trace_tests =
  [ case "trace playback counts match the trace" (fun () ->
        let m = make () in
        let profile = Workload.Trace.Uniform { activity = 0.5; read_fraction = 0.5 } in
        let trace = Workload.Trace.generate ~seed:9 profile ~length:2000 in
        let summary = Workload.Trace.characterize trace in
        let s = Sram_macro.Macro.run_trace m trace in
        Alcotest.(check int) "reads" summary.Workload.Trace.reads s.Sram_macro.Macro.reads;
        Alcotest.(check int) "writes" summary.Workload.Trace.writes s.Sram_macro.Macro.writes;
        Alcotest.(check int) "idles" summary.Workload.Trace.idles s.Sram_macro.Macro.idle_cycles);
    case "busier traces burn more switching energy" (fun () ->
        let m = make () in
        let quiet =
          Workload.Trace.generate ~seed:9
            (Workload.Trace.Uniform { activity = 0.1; read_fraction = 0.5 })
            ~length:2000
        in
        let busy =
          Workload.Trace.generate ~seed:9
            (Workload.Trace.Uniform { activity = 0.9; read_fraction = 0.5 })
            ~length:2000
        in
        let sq = Sram_macro.Macro.run_trace m quiet in
        let sb = Sram_macro.Macro.run_trace m busy in
        Alcotest.(check bool) "busy > quiet" true
          (sb.Sram_macro.Macro.switching_energy > 3.0 *. sq.Sram_macro.Macro.switching_energy)) ]

let () =
  Alcotest.run "macro"
    [ ("functional", functional_tests);
      ("accounting", accounting_tests);
      ("trace", trace_tests) ]
