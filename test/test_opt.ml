(* Tests of the optimization layer: yield-driven voltage pinning, the
   search space and M1/M2 policies, exhaustive search correctness (best
   really is the minimum), Pareto extraction, and annealing. *)

open Testutil

let yield_tests =
  [ case "snap_up lands on the 10 mV grid" (fun () ->
        check_close "snap" 0.54 (Opt.Yield.snap_up 0.531);
        check_close "exact stays" 0.53 (Opt.Yield.snap_up 0.53);
        check_close "tiny above" 0.54 (Opt.Yield.snap_up 0.5301));
    case "HVT levels near the paper's 550 mV pins" (fun () ->
        let l = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        check_within "vddc" ~lo:0.50 ~hi:0.58 l.Opt.Yield.vddc_min;
        check_within "vwl" ~lo:0.51 ~hi:0.59 l.Opt.Yield.vwl_min;
        Alcotest.(check bool) "hold ok" true
          (l.Opt.Yield.hsnm_nominal >= Finfet.Tech.min_margin));
    case "LVT needs a deeper boost than HVT (paper ordering)" (fun () ->
        let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
        let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc order" true
          (lvt.Opt.Yield.vddc_min > hvt.Opt.Yield.vddc_min);
        Alcotest.(check bool) "vwl order" true
          (lvt.Opt.Yield.vwl_min < hvt.Opt.Yield.vwl_min));
    case "margins_ok accepts the solved pins and rejects weaker ones" (fun () ->
        let l = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "pins ok" true
          (Opt.Yield.margins_ok ~flavor:Finfet.Library.Hvt
             ~vddc:l.Opt.Yield.vddc_min ~vssc:0.0 ~vwl:l.Opt.Yield.vwl_min ());
        Alcotest.(check bool) "nominal fails" false
          (Opt.Yield.margins_ok ~flavor:Finfet.Library.Hvt ~vddc:0.45 ~vssc:0.0
             ~vwl:0.45 ()));
    case "SF corner demands a higher write level" (fun () ->
        let tt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let sf = Opt.Yield.solve ~corner:Finfet.Corners.SF ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vwl up" true
          (sf.Opt.Yield.vwl_min > tt.Opt.Yield.vwl_min +. 0.02));
    case "FS corner demands a deeper read boost" (fun () ->
        let tt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let fs = Opt.Yield.solve ~corner:Finfet.Corners.FS ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc up" true
          (fs.Opt.Yield.vddc_min > tt.Opt.Yield.vddc_min +. 0.01));
    case "heat raises the required read boost" (fun () ->
        let cold = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let hot = Opt.Yield.solve ~celsius:125.0 ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc up hot" true
          (hot.Opt.Yield.vddc_min >= cold.Opt.Yield.vddc_min));
    case "rsnm_at is cached and consistent" (fun () ->
        let a = Opt.Yield.rsnm_at ~flavor:Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 () in
        let b = Opt.Yield.rsnm_at ~flavor:Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 () in
        check_close "cache" a b;
        Alcotest.(check bool) "meets rule at 550" true (a >= Finfet.Tech.min_margin));
    (* [Yield.solve] bisects V_DDC on the 10 mV grid, which finds the
       smallest passing grid point only if RSNM never falls as V_DDC
       rises there. *)
    case "RSNM is non-decreasing in V_DDC on the grid (TT, FS, SF at 25 C)" (fun () ->
        let grid =
          Array.init 36 (fun i -> float_of_int (45 + i) *. Opt.Yield.voltage_grid)
        in
        List.iter
          (fun flavor ->
            List.iter
              (fun corner ->
                let cell = Opt.Yield.cell_of ~corner ~celsius:25.0 flavor in
                check_increasing
                  (Printf.sprintf "RSNM %s %s"
                     (Finfet.Library.flavor_to_string flavor) (Finfet.Corners.name corner))
                  (Array.map
                     (fun vddc ->
                       Sram_cell.Margins.read_snm ~cell (Sram_cell.Sram6t.read ~vddc ()))
                     grid))
              [ Finfet.Corners.TT; Finfet.Corners.FS; Finfet.Corners.SF ])
          [ Finfet.Library.Hvt; Finfet.Library.Lvt ]);
    case "an unreachable read margin raises a typed Infeasible" (fun () ->
        match
          Opt.Yield.solve ~corner:Finfet.Corners.TT ~celsius:125.0 ~flavor:Finfet.Library.Lvt ()
        with
        | _ -> Alcotest.fail "LVT at TT/125 C should be infeasible"
        | exception (Opt.Yield.Infeasible r as e) ->
          Alcotest.(check string) "flavor" "LVT" (Finfet.Library.flavor_to_string r.flavor);
          Alcotest.(check string) "corner" "TT" (Finfet.Corners.name r.corner);
          check_close "celsius" 125.0 r.celsius;
          check_close "delta" Finfet.Tech.min_margin r.delta;
          Alcotest.(check bool) "RSNM below delta" true (r.rsnm < r.delta && r.rsnm > 0.0);
          (* The top of the range is traced only once the bisection has
             failed everywhere below it; the payload is still its RSNM. *)
          let cell =
            Opt.Yield.cell_of ~corner:Finfet.Corners.TT ~celsius:125.0 Finfet.Library.Lvt
          in
          Alcotest.(check int64) "RSNM is read at vddc_max"
            (Int64.bits_of_float
               (Sram_cell.Margins.read_snm ~cell (Sram_cell.Sram6t.read ~vddc:Opt.Yield.vddc_max ())))
            (Int64.bits_of_float r.rsnm);
          let msg = Printexc.to_string e in
          let mentions part =
            let n = String.length part in
            let rec at i =
              i + n <= String.length msg && (String.sub msg i n = part || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool) ("message names the condition: " ^ msg) true
            (List.for_all mentions [ "LVT"; "TT"; "125" ])) ]

let space_tests =
  [ case "default grids match the paper's ranges" (fun () ->
        let s = Opt.Space.default in
        Alcotest.(check int) "vssc" 25 (Array.length s.Opt.Space.vssc_values);
        Alcotest.(check int) "nr" 10 (Array.length s.Opt.Space.nr_values);
        Alcotest.(check int) "npre" 50 (Array.length s.Opt.Space.n_pre_values);
        Alcotest.(check int) "nwr" 20 (Array.length s.Opt.Space.n_wr_values);
        check_close "deepest vssc" (-0.240)
          s.Opt.Space.vssc_values.(24);
        Alcotest.(check int) "largest nr" 1024 s.Opt.Space.nr_values.(9));
    case "M1 shares one boosted level and forbids V_SSC" (fun () ->
        let levels = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
        let pins = Opt.Space.pins_for Opt.Space.M1 levels in
        check_close "shared" (max levels.Opt.Yield.vddc_min levels.Opt.Yield.vwl_min)
          pins.Opt.Space.vddc;
        check_close "same" pins.Opt.Space.vddc pins.Opt.Space.vwl;
        Alcotest.(check bool) "no vssc" false pins.Opt.Space.vssc_allowed;
        Alcotest.(check int) "one extra level" 1 pins.Opt.Space.extra_levels);
    case "M2 separates distant levels (LVT) and merges close ones (HVT)" (fun () ->
        let lvt = Opt.Space.pins_for Opt.Space.M2 (Opt.Yield.solve ~flavor:Finfet.Library.Lvt ()) in
        Alcotest.(check bool) "lvt separate" true (lvt.Opt.Space.vddc <> lvt.Opt.Space.vwl);
        Alcotest.(check int) "three pins" 3 lvt.Opt.Space.extra_levels;
        let hvt = Opt.Space.pins_for Opt.Space.M2 (Opt.Yield.solve ~flavor:Finfet.Library.Hvt ()) in
        check_close "hvt merged" hvt.Opt.Space.vddc hvt.Opt.Space.vwl;
        Alcotest.(check int) "two pins" 2 hvt.Opt.Space.extra_levels);
    case "assist_of clamps V_SSC under M1" (fun () ->
        let levels = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let m1 = Opt.Space.pins_for Opt.Space.M1 levels in
        let a = Opt.Space.assist_of m1 ~vssc:(-0.2) in
        check_close_abs "clamped" 0.0 a.Array_model.Components.vssc);
    case "candidate geometries keep both dimensions powers of two" (fun () ->
        let geoms =
          Opt.Space.candidate_geometries Opt.Space.reduced ~capacity_bits:(1024 * 8)
        in
        Alcotest.(check bool) "nonempty" true (geoms <> []);
        List.iter
          (fun g ->
            Alcotest.(check int) "capacity" (1024 * 8)
              (Array_model.Geometry.capacity_bits g))
          geoms);
    case "size counts the cross product" (fun () ->
        let s = Opt.Space.reduced in
        let geoms = List.length (Opt.Space.candidate_geometries s ~capacity_bits:(1024 * 8)) in
        Alcotest.(check int) "m2"
          (geoms * Array.length s.Opt.Space.vssc_values)
          (Opt.Space.size s ~capacity_bits:(1024 * 8) Opt.Space.M2);
        Alcotest.(check int) "m1" geoms
          (Opt.Space.size s ~capacity_bits:(1024 * 8) Opt.Space.M1)) ]

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
let small_cap = 1024 * 8

let exhaustive_tests =
  [ case "best really is the minimum over all candidates" (fun () ->
        let result, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check int) "count matches" result.Opt.Exhaustive.evaluated
          (List.length all);
        List.iter
          (fun (c : Opt.Exhaustive.candidate) ->
            Alcotest.(check bool) "no better candidate" true
              (c.Opt.Exhaustive.score
               >= result.Opt.Exhaustive.best.Opt.Exhaustive.score -. 1e-30))
          all);
    case "search rejects non-power-of-two capacities" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Opt.Exhaustive.search ~env:env_hvt ~capacity_bits:3000
                  ~method_:Opt.Space.M2 ());
             false
           with Invalid_argument _ -> true));
    case "M1 never uses a negative V_SSC" (fun () ->
        let r =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        check_close_abs "vssc" 0.0
          r.Opt.Exhaustive.best.Opt.Exhaustive.assist.Array_model.Components.vssc);
    case "M2 beats (or ties) M1 on the objective" (fun () ->
        let m1 =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        let m2 =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "m2 <= m1" true
          (m2.Opt.Exhaustive.best.Opt.Exhaustive.score
           <= m1.Opt.Exhaustive.best.Opt.Exhaustive.score +. 1e-30));
    case "delay-only objective is at least as fast as the EDP optimum" (fun () ->
        let edp =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let fast =
          Opt.Exhaustive.search ~space:Opt.Space.reduced
            ~objective:Opt.Objective.Delay_only ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "delay" true
          (fast.Opt.Exhaustive.best.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
           <= edp.Opt.Exhaustive.best.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
              +. 1e-30)) ]

let objective_tests =
  [ case "objective formulas" (fun () ->
        let r =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        let m = r.Opt.Exhaustive.best.Opt.Exhaustive.metrics in
        let e = m.Array_model.Array_eval.e_total in
        let d = m.Array_model.Array_eval.d_array in
        check_close "edp" (e *. d) (Opt.Objective.eval Opt.Objective.Energy_delay_product m);
        check_close "ed2" (e *. d *. d) (Opt.Objective.eval Opt.Objective.Energy_delay_squared m);
        check_close "e" e (Opt.Objective.eval Opt.Objective.Energy_only m);
        check_close "d" d (Opt.Objective.eval Opt.Objective.Delay_only m));
    case "objective names" (fun () ->
        Alcotest.(check string) "edp" "EDP" (Opt.Objective.name Opt.Objective.Energy_delay_product);
        Alcotest.(check int) "all four" 4 (List.length Opt.Objective.all)) ]

let pareto_tests =
  [ case "front members are mutually non-dominated" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let front = Opt.Pareto.front all in
        Alcotest.(check bool) "nonempty" true (front <> []);
        let d (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array in
        let e (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a != b then
                  Alcotest.(check bool) "non-dominated" false
                    (d b <= d a && e b <= e a && (d b < d a || e b < e a)))
              front)
          front);
    case "front dominates every candidate" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let front = Opt.Pareto.front all in
        let d (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array in
        let e (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total in
        List.iter
          (fun c ->
            Alcotest.(check bool) "covered" true
              (List.exists
                 (fun f -> d f <= d c +. 1e-30 && e f <= e c +. 1e-30)
                 front))
          all);
    case "knee lies on the front" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        match Opt.Pareto.knee all with
        | Some k ->
          Alcotest.(check bool) "member" true
            (List.exists (fun c -> c == k) (Opt.Pareto.front all))
        | None -> Alcotest.fail "no knee");
    case "empty input yields empty front and no knee" (fun () ->
        Alcotest.(check bool) "front" true (Opt.Pareto.front [] = []);
        Alcotest.(check bool) "knee" true (Opt.Pareto.knee [] = None)) ]

(* Pareto invariants as QCheck properties over synthetic candidates:
   the front logic only reads (d_array, e_total), so a dummy geometry
   and nominal rails let us drive it with arbitrary objective points
   instead of the handful a real search produces. *)
let synth_candidate (d, e) =
  { Opt.Exhaustive.geometry =
      Array_model.Geometry.create ~nr:16 ~nc:16 ~n_pre:1 ~n_wr:1 ();
    assist = Array_model.Components.no_assist;
    metrics =
      { Array_model.Array_eval.d_read = d; d_write = d; d_array = d;
        e_read = e; e_write = e; e_switching = e; e_leakage = 0.0;
        e_total = e; edp = d *. e; d_bl_read = d; d_row_path_read = 0.0;
        d_col_path = 0.0 };
    score = d *. e }

let points_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 40)
      (pair (float_range 1e-3 1e3) (float_range 1e-3 1e3)))

let dm (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
let em (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total
let dominates a b = dm a <= dm b && em a <= em b && (dm a < dm b || em a < em b)

let pareto_prop_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"front is mutually non-dominated" ~count:300
         points_arb (fun points ->
           let front = Opt.Pareto.front (List.map synth_candidate points) in
           front <> []
           && List.for_all
                (fun a -> List.for_all (fun b -> a == b || not (dominates b a)) front)
                front));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every candidate is covered by the front" ~count:300
         points_arb (fun points ->
           let all = List.map synth_candidate points in
           let front = Opt.Pareto.front all in
           List.for_all
             (fun c ->
               List.exists (fun f -> dm f <= dm c && em f <= em c) front)
             all));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"front extraction is idempotent" ~count:300
         points_arb (fun points ->
           let front = Opt.Pareto.front (List.map synth_candidate points) in
           let again = Opt.Pareto.front front in
           List.length again = List.length front
           && List.for_all
                (fun f -> List.exists (fun g -> dm f = dm g && em f = em g) again)
                front));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"knee is a front member" ~count:300 points_arb
         (fun points ->
           let all = List.map synth_candidate points in
           match Opt.Pareto.knee all with
           | None -> false
           | Some k ->
             List.exists
               (fun f -> dm f = dm k && em f = em k)
               (Opt.Pareto.front all)));
  ]

let anneal_tests =
  [ case "annealing is deterministic per seed" (fun () ->
        let run () =
          Opt.Anneal.search ~space:Opt.Space.reduced
            ~schedule:{ Opt.Anneal.initial_temperature = 0.3; cooling = 0.99; steps = 300 }
            ~seed:5 ~env:env_hvt ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let a = run () and b = run () in
        (* Determinism means the whole design point, not just the score:
           same geometry, same assist rail, bit-identical floats. *)
        let ga = a.Opt.Exhaustive.best.Opt.Exhaustive.geometry in
        let gb = b.Opt.Exhaustive.best.Opt.Exhaustive.geometry in
        Alcotest.(check int) "nr" ga.Array_model.Geometry.nr gb.Array_model.Geometry.nr;
        Alcotest.(check int) "nc" ga.Array_model.Geometry.nc gb.Array_model.Geometry.nc;
        Alcotest.(check int) "n_pre" ga.Array_model.Geometry.n_pre gb.Array_model.Geometry.n_pre;
        Alcotest.(check int) "n_wr" ga.Array_model.Geometry.n_wr gb.Array_model.Geometry.n_wr;
        let bits r =
          Int64.bits_of_float r.Opt.Exhaustive.best.Opt.Exhaustive.score
        in
        Alcotest.(check int64) "score bits" (bits a) (bits b);
        let vssc r =
          Int64.bits_of_float
            r.Opt.Exhaustive.best.Opt.Exhaustive.assist.Array_model.Components.vssc
        in
        Alcotest.(check int64) "vssc bits" (vssc a) (vssc b);
        Alcotest.(check int) "same trajectory" a.Opt.Exhaustive.evaluated
          b.Opt.Exhaustive.evaluated);
    case "annealing lands within 10% of the exhaustive optimum" (fun () ->
        let exact =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let approx =
          Opt.Anneal.search ~space:Opt.Space.reduced ~seed:7 ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        check_within "quality" ~lo:1.0 ~hi:1.10
          (approx.Opt.Exhaustive.best.Opt.Exhaustive.score
           /. exact.Opt.Exhaustive.best.Opt.Exhaustive.score));
    case "annealing spends far fewer evaluations" (fun () ->
        let approx =
          Opt.Anneal.search ~space:Opt.Space.reduced ~seed:7 ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "cheap" true
          (approx.Opt.Exhaustive.evaluated
           < Opt.Space.size Opt.Space.reduced ~capacity_bits:small_cap Opt.Space.M2)) ]

let local_search_tests =
  [ case "coordinate descent lands near the exhaustive optimum" (fun () ->
        (* The reduced grid is deliberately coarse, which leaves real local
           minima; a few extra restarts keep the gap in single digits. *)
        let exact =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let local =
          Opt.Local_search.search ~space:Opt.Space.reduced ~restarts:8
            ~env:env_hvt ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        check_within "quality" ~lo:1.0 ~hi:1.10
          (local.Opt.Exhaustive.best.Opt.Exhaustive.score
           /. exact.Opt.Exhaustive.best.Opt.Exhaustive.score));
    case "full-grid coordinate descent is within 2% of exhaustive" (fun () ->
        let exact =
          Opt.Exhaustive.search ~env:env_hvt ~capacity_bits:small_cap
            ~method_:Opt.Space.M2 ()
        in
        let local =
          Opt.Local_search.search ~env:env_hvt ~capacity_bits:small_cap
            ~method_:Opt.Space.M2 ()
        in
        check_within "quality" ~lo:1.0 ~hi:1.02
          (local.Opt.Exhaustive.best.Opt.Exhaustive.score
           /. exact.Opt.Exhaustive.best.Opt.Exhaustive.score));
    case "coordinate descent is deterministic" (fun () ->
        let run () =
          (Opt.Local_search.search ~space:Opt.Space.reduced ~env:env_hvt
             ~capacity_bits:small_cap ~method_:Opt.Space.M2 ())
            .Opt.Exhaustive.best.Opt.Exhaustive.score
        in
        check_close "same" (run ()) (run ()));
    case "coordinate descent spends far fewer evaluations" (fun () ->
        let local =
          Opt.Local_search.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "cheap" true
          (local.Opt.Exhaustive.evaluated
           < Opt.Space.size Opt.Space.reduced ~capacity_bits:small_cap Opt.Space.M2));
    case "respects injected levels" (fun () ->
        (* Injected levels are part of the strategy contract, so every
           engine must pin to them, not just the descent. *)
        let levels = { Opt.Yield.vddc_min = 0.60; vwl_min = 0.60; hsnm_nominal = 0.2 } in
        List.iter
          (fun st ->
            let r =
              Opt.Strategy.run st ~space:Opt.Space.reduced ~levels ~env:env_hvt
                ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
            in
            check_close
              (Opt.Strategy.name st ^ " pins")
              0.60
              r.Opt.Exhaustive.best.Opt.Exhaustive.assist.Array_model.Components.vddc)
          Opt.Strategy.all) ]

let journal_tests =
  [ case "anneal result JSON round-trips the considered count" (fun () ->
        let r =
          Opt.Anneal.search ~space:Opt.Space.reduced ~seed:7 ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check int) "a heuristic considers what it evaluates"
          r.Opt.Exhaustive.evaluated r.Opt.Exhaustive.considered;
        let j = Opt.Exhaustive.result_to_json r in
        Alcotest.(check (option int)) "considered on the wire"
          (Some r.Opt.Exhaustive.considered)
          (Persist.Json.int_field j "considered");
        match Opt.Exhaustive.result_of_json j with
        | None -> Alcotest.fail "result does not decode"
        | Some r' ->
          Alcotest.(check int) "considered survives the round-trip"
            r.Opt.Exhaustive.considered r'.Opt.Exhaustive.considered);
    slow_case "journal is observation-only: winners bit-identical on/off"
      (fun () ->
        let fingerprint (r : Opt.Exhaustive.result) =
          let b = r.Opt.Exhaustive.best in
          let g = b.Opt.Exhaustive.geometry in
          Printf.sprintf "%d/%d/%d/%d %.17g %.17g" g.Array_model.Geometry.nr
            g.Array_model.Geometry.nc g.Array_model.Geometry.n_pre
            g.Array_model.Geometry.n_wr
            b.Opt.Exhaustive.assist.Array_model.Components.vssc
            b.Opt.Exhaustive.score
        in
        let search jobs =
          let pool = Runtime.Pool.create ~jobs () in
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~pool ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        List.iter
          (fun jobs ->
            Obs.Search.disarm ();
            let off = fingerprint (search jobs) in
            Obs.Search.arm ();
            Obs.Control.set_enabled true;
            let on = fingerprint (search jobs) in
            let s = Obs.Search.summary () in
            Obs.Control.set_enabled false;
            Obs.Search.disarm ();
            Alcotest.(check string)
              (Printf.sprintf "identical design at jobs=%d" jobs)
              off on;
            Alcotest.(check bool)
              (Printf.sprintf "journal saw the search at jobs=%d" jobs)
              true
              (s.Obs.Search.incumbents > 0 || s.Obs.Search.prunes > 0))
          [ 1; 2; 4 ];
        (* The armed run fed the bound-quality histogram; gaps are
           relative, so every observation is non-negative. *)
        match
          List.find_opt
            (fun (sn : Obs.Histogram.snapshot) ->
              sn.Obs.Histogram.name = "opt.bound_gap")
            (Obs.Histogram.snapshots ())
        with
        | None -> Alcotest.fail "opt.bound_gap histogram never registered"
        | Some sn ->
          Alcotest.(check bool) "bound gaps observed" true
            (sn.Obs.Histogram.count > 0);
          Alcotest.(check bool) "gaps non-negative" true
            (sn.Obs.Histogram.min_s >= 0.0)) ]

let explain_tests =
  let result =
    lazy
      (Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
         ~capacity_bits:small_cap ~method_:Opt.Space.M2 ())
  in
  [ case "no grid neighbor of the exhaustive winner is better" (fun () ->
        let r = Lazy.force result in
        let axes =
          Opt.Explain.sensitivity ~space:Opt.Space.reduced ~env:env_hvt
            ~pins:r.Opt.Exhaustive.pins ~winner:r.Opt.Exhaustive.best ()
        in
        Alcotest.(check (list string))
          "axes in search order"
          [ "n_r"; "N_pre"; "N_wr"; "V_SSC" ]
          (List.map (fun a -> a.Opt.Explain.ax_name) axes);
        List.iter
          (fun (ax : Opt.Explain.axis) ->
            List.iter
              (function
                | None -> ()
                | Some (n : Opt.Explain.neighbor) ->
                  if n.Opt.Explain.nb_delta < 0.0 then
                    Alcotest.failf
                      "%s neighbor at %g beats the winner by %.3g%%"
                      ax.Opt.Explain.ax_name n.Opt.Explain.nb_value
                      (-100.0 *. n.Opt.Explain.nb_delta))
              [ ax.Opt.Explain.ax_minus; ax.Opt.Explain.ax_plus ])
          axes);
    case "energy rollup reproduces E_total" (fun () ->
        let r = Lazy.force result in
        let b = r.Opt.Exhaustive.best in
        let at =
          Array_model.Array_eval.attribute env_hvt b.Opt.Exhaustive.geometry
            b.Opt.Exhaustive.assist
        in
        Alcotest.(check bool) "terms refold bit-exactly" true
          (Array_model.Array_eval.attribution_consistent at);
        let rollup = Opt.Explain.energy_rollup at in
        let total = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 rollup in
        check_close "weighted shares sum to the total"
          at.Array_model.Array_eval.at_metrics.Array_model.Array_eval.e_total
          total);
    slow_case "pareto provenance accounts for every candidate" (fun () ->
        let p =
          Opt.Explain.pareto ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check int) "front + dominated = evaluated"
          p.Opt.Explain.pv_evaluated
          (List.length p.Opt.Explain.pv_front + p.Opt.Explain.pv_dominated);
        Alcotest.(check bool) "front nonempty" true
          (p.Opt.Explain.pv_front <> []);
        let best_front =
          List.fold_left
            (fun acc (c : Opt.Exhaustive.candidate) ->
              min acc c.Opt.Exhaustive.score)
            infinity p.Opt.Explain.pv_front
        in
        let r = Lazy.force result in
        (* The EDP winner is Pareto-optimal, so the front must contain
           a point with exactly the winning score. *)
        Alcotest.(check int64) "winner sits on the front"
          (Int64.bits_of_float r.Opt.Exhaustive.best.Opt.Exhaustive.score)
          (Int64.bits_of_float best_front)) ]

let array_yield_tests =
  let g = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:24 ~n_wr:2 () in
  [ case "zero cell failures give unit yield" (fun () ->
        check_close "one" 1.0 (Opt.Array_yield.array_yield ~geometry:g ~cell_fail:0.0 ()));
    case "yield falls with cell failure probability" (fun () ->
        let y p = Opt.Array_yield.array_yield ~geometry:g ~cell_fail:p () in
        check_decreasing ~strict:true "monotone" [| y 1e-8; y 1e-6; y 1e-4 |]);
    case "spare rows raise the yield" (fun () ->
        let at spare_rows =
          Opt.Array_yield.array_yield ~spare_rows ~geometry:g ~cell_fail:1e-5 ()
        in
        check_increasing ~strict:true "repair" [| at 0; at 1; at 4 |]);
    case "cell failure probability combines the three margins" (fun () ->
        let good = [| 0.2; 0.21; 0.19; 0.2; 0.22; 0.18 |] in
        let marginal = [| 0.02; 0.01; -0.01; 0.03; 0.0; 0.02 |] in
        let p_good =
          Opt.Array_yield.cell_failure_probability
            { Sram_cell.Montecarlo.hsnm = good; rsnm = good; wm = good }
        in
        let p_marginal =
          Opt.Array_yield.cell_failure_probability
            { Sram_cell.Montecarlo.hsnm = good; rsnm = marginal; wm = good }
        in
        Alcotest.(check bool) "ordering" true (p_good < 1e-6 && p_marginal > 0.1));
    case "yield-solved boost undercuts the 35% proxy rule" (fun () ->
        let cfg = { Opt.Yield_mc.default_config with Opt.Yield_mc.samples = 12 } in
        let s =
          Opt.Array_yield.solve_vddc ~config:cfg ~flavor:Finfet.Library.Hvt
            ~geometry:g ()
        in
        Alcotest.(check bool) "meets target" true
          (s.Opt.Array_yield.achieved_yield >= 0.99);
        let proxy = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "cheaper than proxy" true
          (s.Opt.Array_yield.vddc_min <= proxy.Opt.Yield.vddc_min)) ]

let () =
  Alcotest.run "opt"
    [ ("yield", yield_tests);
      ("space", space_tests);
      ("exhaustive", exhaustive_tests);
      ("objective", objective_tests);
      ("pareto", pareto_tests);
      ("pareto_props", pareto_prop_tests);
      ("anneal", anneal_tests);
      ("local_search", local_search_tests);
      ("journal", journal_tests);
      ("explain", explain_tests);
      ("array_yield", array_yield_tests) ]
