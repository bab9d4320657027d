(* Tests of the 6T cell analyses: bistability, butterfly/SNM extraction,
   write margin, dynamics, leakage and Monte Carlo — including every
   cell-level anchor the paper reports. *)

open Testutil

let lib = Lazy.force Finfet.Library.default

let cell_of flavor =
  Finfet.Variation.nominal_cell
    ~nfet:(Finfet.Library.nfet lib flavor)
    ~pfet:(Finfet.Library.pfet lib flavor)

let lvt = cell_of Finfet.Library.Lvt
let hvt = cell_of Finfet.Library.Hvt
let vdd = Finfet.Tech.vdd_nominal
let delta = Finfet.Tech.min_margin

let condition_tests =
  [ case "hold condition has WL off and bitlines precharged" (fun () ->
        let c = Sram_cell.Sram6t.hold () in
        check_close_abs "wl" 0.0 c.Sram_cell.Sram6t.vwl;
        check_close "bl" vdd c.Sram_cell.Sram6t.vbl;
        check_close "vddc" vdd c.Sram_cell.Sram6t.vddc;
        check_close_abs "vssc" 0.0 c.Sram_cell.Sram6t.vssc);
    case "read condition clamps both bitlines" (fun () ->
        let c = Sram_cell.Sram6t.read ~vddc:0.55 ~vssc:(-0.1) () in
        check_close "vddc" 0.55 c.Sram_cell.Sram6t.vddc;
        check_close "vssc" (-0.1) c.Sram_cell.Sram6t.vssc;
        check_close "wl on" vdd c.Sram_cell.Sram6t.vwl;
        check_close "blb" vdd c.Sram_cell.Sram6t.vblb);
    case "write0 drives BL low and BLB high" (fun () ->
        let c = Sram_cell.Sram6t.write0 ~vwl:0.54 () in
        check_close_abs "bl" 0.0 c.Sram_cell.Sram6t.vbl;
        check_close "blb" vdd c.Sram_cell.Sram6t.vblb;
        check_close "vwl" 0.54 c.Sram_cell.Sram6t.vwl) ]

let settled ?q_init condition =
  match Sram_cell.Sram6t.solve_state ?q_init ~cell:hvt condition with
  | Sram_cell.Sram6t.Settled (q, qb) -> (q, qb)
  | Sram_cell.Sram6t.Unsettled -> Alcotest.fail "cell solve did not converge"

let state_tests =
  [ case "hold state is bistable" (fun () ->
        let q0, qb0 = settled ~q_init:0.0 (Sram_cell.Sram6t.hold ()) in
        let q1, qb1 = settled ~q_init:vdd (Sram_cell.Sram6t.hold ()) in
        Alcotest.(check bool) "lobe 0" true (q0 < 0.1 *. vdd && qb0 > 0.9 *. vdd);
        Alcotest.(check bool) "lobe 1" true (q1 > 0.9 *. vdd && qb1 < 0.1 *. vdd));
    case "read disturbs but does not flip the nominal cell" (fun () ->
        let q, qb = settled ~q_init:0.0 (Sram_cell.Sram6t.read ()) in
        Alcotest.(check bool) "still holds 0" true (q < qb);
        Alcotest.(check bool) "bump above ground" true (q > 0.0));
    case "storage node cap sums the attached terminals" (fun () ->
        let c = Sram_cell.Sram6t.storage_node_cap hvt in
        let expected =
          hvt.Finfet.Variation.pull_up_l.Finfet.Device.c_drain
          +. hvt.Finfet.Variation.pull_down_l.Finfet.Device.c_drain
          +. hvt.Finfet.Variation.access_l.Finfet.Device.c_drain
          +. hvt.Finfet.Variation.pull_up_r.Finfet.Device.c_gate
          +. hvt.Finfet.Variation.pull_down_r.Finfet.Device.c_gate
        in
        check_close "cap" expected c) ]

let butterfly_tests =
  [ case "VTC is full swing and decreasing" (fun () ->
        let vtc =
          Sram_cell.Butterfly.trace_vtc ~points:41 ~cell:hvt ~side:`Left
            ~access_on:false (Sram_cell.Sram6t.hold ())
        in
        check_decreasing "vtc" vtc.Sram_cell.Butterfly.outputs;
        let n = Array.length vtc.Sram_cell.Butterfly.outputs in
        check_close ~tol:1e-2 "high end" vdd vtc.Sram_cell.Butterfly.outputs.(0);
        check_close_abs ~tol:5e-3 "low end" 0.0 vtc.Sram_cell.Butterfly.outputs.(n - 1));
    case "hold butterfly lobes are symmetric for a nominal cell" (fun () ->
        let b =
          Sram_cell.Butterfly.trace ~points:41 ~cell:hvt ~access_on:false
            (Sram_cell.Sram6t.hold ())
        in
        let snm = Sram_cell.Butterfly.snm_of_butterfly b in
        check_close ~tol:0.02 "lobes" snm.Sram_cell.Butterfly.lobe_high
          snm.Sram_cell.Butterfly.lobe_low);
    case "HSNM exceeds RSNM (access disturbance)" (fun () ->
        let h = Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt vdd in
        let r = Sram_cell.Margins.read_snm ~points:41 ~cell:hvt (Sram_cell.Sram6t.read ()) in
        Alcotest.(check bool) "hsnm > rsnm" true (h > r));
    case "HSNM at nominal exceeds the yield rule (paper)" (fun () ->
        Alcotest.(check bool) "lvt" true (Sram_cell.Margins.hold_snm ~points:41 ~cell:lvt vdd > delta);
        Alcotest.(check bool) "hvt" true (Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt vdd > delta));
    case "HSNM shrinks with the supply" (fun () ->
        let snms =
          Array.map
            (fun v -> Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt v)
            [| 0.15; 0.25; 0.35; 0.45 |]
        in
        check_increasing ~strict:true "snm(vdd)" snms);
    case "RSNM at nominal fails the yield rule without assist (paper)" (fun () ->
        Alcotest.(check bool) "lvt" true
          (Sram_cell.Margins.read_snm ~points:41 ~cell:lvt (Sram_cell.Sram6t.read ()) < delta);
        Alcotest.(check bool) "hvt" true
          (Sram_cell.Margins.read_snm ~points:41 ~cell:hvt (Sram_cell.Sram6t.read ()) < delta));
    case "Vdd boost raises RSNM monotonically" (fun () ->
        let snms =
          Array.map
            (fun vddc ->
              Sram_cell.Margins.read_snm ~points:41 ~cell:hvt
                (Sram_cell.Sram6t.read ~vddc ()))
            [| 0.45; 0.50; 0.55; 0.60 |]
        in
        check_increasing ~strict:true "rsnm(vddc)" snms);
    case "HVT RSNM meets the rule near the paper's 550 mV boost" (fun () ->
        let at v =
          Sram_cell.Margins.read_snm ~points:61 ~cell:hvt (Sram_cell.Sram6t.read ~vddc:v ())
        in
        Alcotest.(check bool) "500 fails" true (at 0.50 < delta);
        Alcotest.(check bool) "550 passes" true (at 0.55 >= delta));
    case "HVT needs less boost than LVT (paper ordering)" (fun () ->
        let need cell =
          Numerics.Roots.bisect ~tol:1e-3
            (fun v ->
              Sram_cell.Margins.read_snm ~points:41 ~cell
                (Sram_cell.Sram6t.read ~vddc:v ())
              -. delta)
            ~lo:0.45 ~hi:0.75
        in
        Alcotest.(check bool) "ordering" true (need hvt < need lvt));
    case "WL underdrive raises RSNM" (fun () ->
        let low =
          Sram_cell.Margins.read_snm ~points:41 ~cell:hvt
            (Sram_cell.Sram6t.read ~vwl:0.30 ())
        in
        let nom =
          Sram_cell.Margins.read_snm ~points:41 ~cell:hvt (Sram_cell.Sram6t.read ())
        in
        Alcotest.(check bool) "wlud stabilizes" true (low > nom)) ]

(* The PVT box's labelled corner cells. *)
let pvt_box =
  List.map
    (fun (where, flavor, corner, celsius) -> (where, Opt.Yield.cell_of ~corner ~celsius flavor))
    Testutil.pvt_box

(* Does a 5 mV V_WL scan upward from [lo] ([steps] steps) find a write
   probe that does not flip above one that does? *)
let unflips ~cell ~lo ~steps =
  let write = Sram_cell.Sram6t.write0 () in
  let rec scan k flipped =
    k <= steps
    &&
    let vwl = lo +. (0.005 *. float_of_int k) in
    let f = Sram_cell.Margins.flips_at_vwl ~cell write ~vwl in
    (flipped && not f) || scan (k + 1) (flipped || f)
  in
  scan 0 false

(* [f ()] with the DC solves it leaves unconverged and the flip probes
   the write butterfly decides, from the process-wide counters. *)
let with_fallbacks f =
  let unconverged = Runtime.Telemetry.counter "dc.unconverged"
  and fallbacks = Runtime.Telemetry.counter "margins.butterfly_fallbacks" in
  let u0 = Runtime.Telemetry.value unconverged
  and f0 = Runtime.Telemetry.value fallbacks in
  let r = f () in
  (r, Runtime.Telemetry.value unconverged - u0, Runtime.Telemetry.value fallbacks - f0)

let write_tests =
  [ case "write butterfly's Q-high lobe closes where Newton flips" (fun () ->
        (* The rule an unsettled flip probe is decided by, checked where
           Newton settles on both sides of the nominal HVT flip point. *)
        List.iter
          (fun (vwl, flipped) ->
            let c = Sram_cell.Sram6t.write0 ~vwl () in
            let lobe =
              (Sram_cell.Butterfly.snm_of_butterfly
                 (Sram_cell.Butterfly.trace ~cell:hvt ~access_on:true c))
                .Sram_cell.Butterfly.lobe_low
            in
            let q, qb = settled ~q_init:vdd c in
            Alcotest.(check bool) (Printf.sprintf "Newton flips at %g V" vwl) flipped (q < qb);
            Alcotest.(check bool) (Printf.sprintf "lobe closed at %g V" vwl) flipped
              (lobe <= 0.0))
          [ (0.386, false); (0.387, true) ]);
    case "flip predicate is monotone in V_WL over the PVT box" (fun () ->
        let bad, unconverged, fallbacks =
          with_fallbacks (fun () ->
              List.filter_map
                (fun (where, cell) ->
                  if unflips ~cell ~lo:0.0 ~steps:170 then Some where else None)
                pvt_box)
        in
        Alcotest.(check (list string)) "flips, then un-flips" [] bad;
        Alcotest.(check int) "each unconverged solve decided by the butterfly" unconverged
          fallbacks;
        Alcotest.(check bool) "some probes need the butterfly" true (fallbacks > 0));
    case "flip predicate is monotone on Monte Carlo cells" (fun () ->
        let bad, unconverged, fallbacks =
          with_fallbacks (fun () ->
              List.concat_map
                (fun flavor ->
                  let rng = Numerics.Rng.create ~seed:7 in
                  List.filter_map
                    (fun i ->
                      let cell =
                        Finfet.Variation.sample_cell rng
                          ~nfet:(Finfet.Library.nfet lib flavor)
                          ~pfet:(Finfet.Library.pfet lib flavor)
                      in
                      if unflips ~cell ~lo:0.20 ~steps:80 then
                        Some (Printf.sprintf "%s #%d" (Finfet.Library.flavor_to_string flavor) i)
                      else None)
                    (List.init 30 Fun.id))
                [ Finfet.Library.Lvt; Finfet.Library.Hvt ])
        in
        Alcotest.(check (list string)) "flips, then un-flips" [] bad;
        Alcotest.(check int) "each unconverged solve decided by the butterfly" unconverged
          fallbacks);
    case "cell flips above the minimum WL level and not below" (fun () ->
        let c = Sram_cell.Sram6t.write0 () in
        let flip = Sram_cell.Margins.minimum_flipping_vwl ~cell:hvt c in
        Alcotest.(check bool) "below holds" false
          (Sram_cell.Margins.flips_at_vwl ~cell:hvt c ~vwl:(flip -. 0.02));
        Alcotest.(check bool) "above flips" true
          (Sram_cell.Margins.flips_at_vwl ~cell:hvt c ~vwl:(flip +. 0.02)));
    case "WM at nominal WL fails the yield rule (paper)" (fun () ->
        Alcotest.(check bool) "hvt" true
          (Sram_cell.Margins.write_margin ~cell:hvt (Sram_cell.Sram6t.write0 ()) < delta));
    case "WL overdrive adds exactly its own headroom" (fun () ->
        let base = Sram_cell.Margins.write_margin ~cell:hvt (Sram_cell.Sram6t.write0 ()) in
        let boosted =
          Sram_cell.Margins.write_margin ~cell:hvt (Sram_cell.Sram6t.write0 ~vwl:0.54 ())
        in
        check_close ~tol:1e-2 "linear headroom" (base +. 0.09) boosted);
    case "HVT WM meets the rule near the paper's 540 mV overdrive" (fun () ->
        let wm v =
          Sram_cell.Margins.write_margin ~cell:hvt (Sram_cell.Sram6t.write0 ~vwl:v ())
        in
        Alcotest.(check bool) "510 fails" true (wm 0.51 < delta);
        Alcotest.(check bool) "560 passes" true (wm 0.56 >= delta));
    case "negative BL improves the write margin" (fun () ->
        let base = Sram_cell.Margins.write_margin ~cell:hvt (Sram_cell.Sram6t.write0 ()) in
        let assisted =
          Sram_cell.Margins.write_margin ~cell:hvt
            (Sram_cell.Sram6t.write0 ~vbl:(-0.10) ())
        in
        Alcotest.(check bool) "negbl helps" true (assisted > base +. 0.03)) ]

let dynamics_tests =
  [ case "write completes and the delay is picosecond-scale" (fun () ->
        let r = Sram_cell.Dynamics.write_delay ~cell:hvt (Sram_cell.Sram6t.write0 ()) in
        Alcotest.(check bool) "flipped" true r.Sram_cell.Dynamics.flipped;
        check_within "delay" ~lo:0.2e-12 ~hi:15e-12 r.Sram_cell.Dynamics.delay);
    case "WL overdrive shortens the write (Figure 5a trend)" (fun () ->
        let base = Sram_cell.Dynamics.write_delay ~cell:hvt (Sram_cell.Sram6t.write0 ()) in
        let fast =
          Sram_cell.Dynamics.write_delay ~cell:hvt (Sram_cell.Sram6t.write0 ~vwl:0.60 ())
        in
        Alcotest.(check bool) "faster" true
          (fast.Sram_cell.Dynamics.delay < base.Sram_cell.Dynamics.delay));
    case "too-low WL never flips in the window" (fun () ->
        let r =
          Sram_cell.Dynamics.write_delay ~cell:hvt (Sram_cell.Sram6t.write0 ~vwl:0.20 ())
        in
        Alcotest.(check bool) "no flip" false r.Sram_cell.Dynamics.flipped);
    case "read current matches the calibrated stack solve" (fun () ->
        let from_cell =
          Oracle.Dynamics.read_current ~cell:hvt (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        let from_stack = Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 in
        check_close ~tol:0.05 "stack vs cell" from_stack from_cell);
    case "negative Gnd boosts the cell read current" (fun () ->
        let base = Oracle.Dynamics.read_current ~cell:hvt (Sram_cell.Sram6t.read ()) in
        let boosted =
          Oracle.Dynamics.read_current ~cell:hvt
            (Sram_cell.Sram6t.read ~vssc:(-0.24) ())
        in
        Alcotest.(check bool) "boost" true (boosted > 2.0 *. base));
    case "read current grows with V_DDC and with -V_SSC over the PVT box" (fun () ->
        (* 10 mV steps: V_DDC over 0.45-0.70 V, V_SSC over 0 to -0.24 V. *)
        let steps n f = Array.init n (fun k -> f (0.01 *. float_of_int k)) in
        List.iter
          (fun (where, cell) ->
            let i_read c = Oracle.Dynamics.read_current ~cell c in
            check_increasing ~strict:true (where ^ ": I_read(V_DDC)")
              (steps 26 (fun dv -> i_read (Sram_cell.Sram6t.read ~vddc:(0.45 +. dv) ())));
            check_increasing ~strict:true (where ^ ": I_read(-V_SSC)")
              (steps 25 (fun dv -> i_read (Sram_cell.Sram6t.read ~vssc:(-.dv) ()))))
          pvt_box) ]

let leakage_tests =
  [ case "LVT leakage matches the paper's 1.692 nW" (fun () ->
        check_close ~tol:0.02 "lvt" 1.692e-9 (Sram_cell.Leakage.power ~cell:lvt ()));
    case "HVT leakage matches the paper's 0.082 nW" (fun () ->
        check_close ~tol:0.03 "hvt" 0.082e-9 (Sram_cell.Leakage.power ~cell:hvt ()));
    case "leakage grows with the supply" (fun () ->
        let ps =
          Array.map
            (fun v -> Sram_cell.Leakage.power ~vdd:v ~cell:lvt ())
            [| 0.15; 0.25; 0.35; 0.45 |]
        in
        check_increasing ~strict:true "p(vdd)" ps);
    case "scaled LVT still leaks more than nominal HVT (paper: 5x)" (fun () ->
        let lvt_100 = Sram_cell.Leakage.power ~vdd:0.100 ~cell:lvt () in
        let hvt_450 = Sram_cell.Leakage.power ~cell:hvt () in
        check_within "ratio" ~lo:3.0 ~hi:7.0 (lvt_100 /. hvt_450));
    case "leakage is positive under assist rails too" (fun () ->
        let p =
          Sram_cell.Leakage.power_at_condition ~cell:hvt
            (Sram_cell.Sram6t.read ~vddc:0.55 ~vssc:(-0.24) ())
        in
        Alcotest.(check bool) "positive" true (p > 0.0));
    case "leakage is positive and grows with Vdd over the PVT box" (fun () ->
        (* 0.15-0.70 V in 10 mV steps.  Cold HVT cells leak ~1 pW, below
           Newton's residual tolerance at the rail state. *)
        List.iter
          (fun (where, cell) ->
            let ps =
              Array.init 56 (fun k ->
                  Sram_cell.Leakage.power ~vdd:(0.15 +. (0.01 *. float_of_int k)) ~cell ())
            in
            Alcotest.(check bool) (where ^ ": positive at 0.15 V") true (ps.(0) > 0.0);
            check_increasing ~strict:true (where ^ ": P_leak(Vdd)") ps)
          pvt_box) ]

let montecarlo_tests =
  [ case "sampling is deterministic per seed" (fun () ->
        let run () =
          Sram_cell.Montecarlo.sample_margins ~points:31 ~seed:21 ~n:5
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
            ~read_condition:(Sram_cell.Sram6t.read ~vddc:0.55 ())
            ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:0.55 ())
            ()
        in
        let a = run () and b = run () in
        Array.iteri
          (fun i x -> check_close "same rsnm" x b.Sram_cell.Montecarlo.rsnm.(i))
          a.Sram_cell.Montecarlo.rsnm);
    case "means sit near the nominal margins" (fun () ->
        let s =
          Sram_cell.Montecarlo.sample_margins ~points:31 ~sigma_vt:0.010 ~seed:22
            ~n:12
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
            ~read_condition:(Sram_cell.Sram6t.read ~vddc:0.55 ())
            ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:0.55 ())
            ()
        in
        let summary = Sram_cell.Montecarlo.summarize ~k:3.0 s in
        let nominal_rsnm =
          Sram_cell.Margins.read_snm ~points:31 ~cell:hvt
            (Sram_cell.Sram6t.read ~vddc:0.55 ())
        in
        check_close ~tol:0.2 "mu rsnm" nominal_rsnm summary.Sram_cell.Montecarlo.mu_rsnm;
        Alcotest.(check bool) "variation spreads" true
          (summary.Sram_cell.Montecarlo.sigma_rsnm > 0.0));
    case "k-sigma constraint is stricter for larger k" (fun () ->
        let s =
          Sram_cell.Montecarlo.sample_margins ~points:31 ~sigma_vt:0.015 ~seed:23
            ~n:10
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
            ~read_condition:(Sram_cell.Sram6t.read ~vddc:0.55 ())
            ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:0.55 ())
            ()
        in
        let w1 = (Sram_cell.Montecarlo.summarize ~k:1.0 s).Sram_cell.Montecarlo.worst_mu_minus_k_sigma in
        let w6 = (Sram_cell.Montecarlo.summarize ~k:6.0 s).Sram_cell.Montecarlo.worst_mu_minus_k_sigma in
        Alcotest.(check bool) "k=6 stricter" true (w6 < w1)) ]

let weak_cell =
  (* +3 sigma pull-down, -3 sigma access: the classic read-unstable tail. *)
  { hvt with
    Finfet.Variation.pull_down_l =
      Finfet.Device.with_vt (Finfet.Library.nfet lib Finfet.Library.Hvt) 0.47;
    Finfet.Variation.access_l =
      Finfet.Device.with_vt (Finfet.Library.nfet lib Finfet.Library.Hvt) 0.23 }

let dynamic_tests =
  [ case "a statically bistable cell survives any pulse" (fun () ->
        Alcotest.(check bool) "none" true
          (Sram_cell.Dynamic_stability.critical_pulse ~cell:hvt
             ~condition:(Sram_cell.Sram6t.read ()) ()
           = None));
    case "a statically unstable tail cell has a finite critical pulse" (fun () ->
        let cond = Sram_cell.Sram6t.read () in
        Alcotest.(check bool) "statically dead" true
          (Sram_cell.Margins.read_snm ~points:41 ~cell:weak_cell cond < 0.01);
        match Sram_cell.Dynamic_stability.critical_pulse ~cell:weak_cell ~condition:cond () with
        | Some p -> check_within "pulse" ~lo:2e-12 ~hi:150e-12 p
        | None -> Alcotest.fail "expected a finite critical pulse");
    case "survival is monotone in the pulse width" (fun () ->
        let cond = Sram_cell.Sram6t.read () in
        match Sram_cell.Dynamic_stability.critical_pulse ~cell:weak_cell ~condition:cond () with
        | None -> Alcotest.fail "expected instability"
        | Some p ->
          Alcotest.(check bool) "short ok" true
            (Sram_cell.Dynamic_stability.survives_pulse ~cell:weak_cell
               ~condition:cond ~pulse:(0.5 *. p) ());
          Alcotest.(check bool) "long flips" false
            (Sram_cell.Dynamic_stability.survives_pulse ~cell:weak_cell
               ~condition:cond ~pulse:(3.0 *. p) ()));
    case "the Vdd-boost assist extends the critical pulse" (fun () ->
        let base =
          Sram_cell.Dynamic_stability.critical_pulse ~cell:weak_cell
            ~condition:(Sram_cell.Sram6t.read ()) ()
        in
        let boosted =
          Sram_cell.Dynamic_stability.critical_pulse ~cell:weak_cell
            ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ()) ()
        in
        match (base, boosted) with
        | Some b, Some a -> Alcotest.(check bool) "longer" true (a > b)
        | Some _, None -> () (* boost made it statically stable: even better *)
        | None, _ -> Alcotest.fail "expected base instability") ]

(* ----- the butterfly against the reference kernels ----- *)

let bits = Array.map Int64.bits_of_float

(* A monotone non-increasing inverter-like curve over [lo, hi]: the
   output falls from near [hi] to near [lo] in random steps, weighted so
   some curves switch sharply and some gradually. *)
let vtc_gen ~inputs ~lo ~hi =
  let open QCheck.Gen in
  let n = Array.length inputs in
  let* steps = array_repeat (n - 1) (map (fun r -> r ** 4.0) (float_range 0.0 1.0)) in
  let* top = float_range 0.0 0.05 and* bottom = float_range 0.0 0.05 in
  let total = Array.fold_left ( +. ) 1e-9 steps in
  let span = (hi -. top) -. (lo +. bottom) in
  let outputs = Array.make n (hi -. top) in
  for i = 1 to n - 1 do
    outputs.(i) <- outputs.(i - 1) -. (span *. steps.(i - 1) /. total)
  done;
  return { Sram_cell.Butterfly.inputs; outputs }

let butterfly_gen =
  let open QCheck.Gen in
  let* n = int_range 9 81 in
  let* lo = float_range (-0.25) 0.0 and* hi = float_range 0.4 0.8 in
  let inputs =
    Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
  in
  let* curve_r = vtc_gen ~inputs ~lo ~hi in
  let+ curve_l = vtc_gen ~inputs ~lo ~hi in
  { Sram_cell.Butterfly.curve_r; curve_l }

let print_butterfly { Sram_cell.Butterfly.curve_r; curve_l } =
  let row a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "inputs %s\nR %s\nL %s" (row curve_r.Sram_cell.Butterfly.inputs)
    (row curve_r.Sram_cell.Butterfly.outputs) (row curve_l.Sram_cell.Butterfly.outputs)

let oracle_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"tabulated lobe brackets are bit-identical to a per-offset scan"
         (QCheck.make ~print:print_butterfly butterfly_gen)
         (fun ({ Sram_cell.Butterfly.curve_r; curve_l } as b) ->
           let snm = Sram_cell.Butterfly.snm_of_butterfly b in
           bits [| snm.Sram_cell.Butterfly.lobe_high; snm.Sram_cell.Butterfly.lobe_low |]
           = bits
               [| Oracle.Butterfly.lobe ~upper:curve_r ~lower:curve_l;
                  Oracle.Butterfly.lobe ~upper:curve_l ~lower:curve_r |]));
    case "VTC source sweep is bit-identical to one netlist per point" (fun () ->
        List.iter
          (fun (cell, side, access_on, condition) ->
            let vtc = Sram_cell.Butterfly.trace_vtc ~cell ~side ~access_on condition in
            let out = snd (Sram_cell.Sram6t.build_half_vtc ~cell ~side ~access_on condition ~vin:0.0) in
            let oracle =
              Oracle.Dc.sweep ~points:vtc.Sram_cell.Butterfly.inputs ~build:(fun vin ->
                  fst (Sram_cell.Sram6t.build_half_vtc ~cell ~side ~access_on condition ~vin))
            in
            Alcotest.(check (array int64)) "outputs"
              (Array.map (fun s -> Int64.bits_of_float (Spice.Dc.node_voltage s out)) oracle)
              (bits vtc.Sram_cell.Butterfly.outputs))
          [ (hvt, `Left, true, Sram_cell.Sram6t.read ~vddc:0.55 ~vssc:(-0.12) ());
            (hvt, `Right, false, Sram_cell.Sram6t.hold ());
            (lvt, `Right, true, Sram_cell.Sram6t.read ~vddc:0.70 ());
            (lvt, `Left, false, Sram_cell.Sram6t.hold ~vdd:0.40 ()) ]);
    case "one-sweep RSNM and HSNM equal the two-sweep oracle over the PVT box" (fun () ->
        List.iter
          (fun (where, cell) ->
            List.iter
              (fun vddc ->
                let condition = Sram_cell.Sram6t.read ~vddc () in
                Alcotest.(check int64)
                  (Printf.sprintf "RSNM %s at %g V" where vddc)
                  (Int64.bits_of_float (Oracle.Butterfly.snm ~cell ~access_on:true condition))
                  (Int64.bits_of_float (Sram_cell.Margins.read_snm ~cell condition)))
              [ 0.45; 0.55; 0.70 ];
            let hold = Sram_cell.Sram6t.hold () in
            Alcotest.(check int64) ("HSNM " ^ where)
              (Int64.bits_of_float (Oracle.Butterfly.snm ~cell ~access_on:false hold))
              (Int64.bits_of_float (Sram_cell.Margins.hold_snm ~cell vdd)))
          pvt_box);
    case "trace shares one curve only between identical halves" (fun () ->
        let shared =
          Sram_cell.Butterfly.trace ~cell:hvt ~access_on:true (Sram_cell.Sram6t.read ())
        in
        Alcotest.(check bool) "nominal read: one curve" true
          (shared.Sram_cell.Butterfly.curve_l == shared.Sram_cell.Butterfly.curve_r);
        let mismatched =
          Finfet.Variation.sample_cell (Numerics.Rng.create ~seed:7)
            ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
            ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
        in
        List.iter
          (fun (what, cell, access_on, condition) ->
            let b = Sram_cell.Butterfly.trace ~cell ~access_on condition in
            Alcotest.(check bool) (what ^ ": two curves") false
              (b.Sram_cell.Butterfly.curve_l == b.Sram_cell.Butterfly.curve_r);
            List.iter
              (fun (side, (curve : Sram_cell.Butterfly.vtc)) ->
                let vtc = Sram_cell.Butterfly.trace_vtc ~cell ~side ~access_on condition in
                Alcotest.(check (array int64)) (what ^ ": inputs") (bits vtc.inputs)
                  (bits curve.inputs);
                Alcotest.(check (array int64)) (what ^ ": outputs") (bits vtc.outputs)
                  (bits curve.outputs))
              [ (`Right, b.Sram_cell.Butterfly.curve_r); (`Left, b.Sram_cell.Butterfly.curve_l) ])
          [ ("Monte Carlo read", mismatched, true, Sram_cell.Sram6t.read ());
            ("Monte Carlo hold", mismatched, false, Sram_cell.Sram6t.hold ());
            ("nominal write0", hvt, true, Sram_cell.Sram6t.write0 ~vwl:0.50 ()) ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"write delay stopped at the Q/QB crossing equals the full-window run"
         (QCheck.make
            ~print:(fun (flavor, corner, vwl) ->
              Printf.sprintf "%s %s V_WL = %h" (Finfet.Library.flavor_to_string flavor)
                (Finfet.Corners.name corner) vwl)
            QCheck.Gen.(
              triple
                (oneofl [ Finfet.Library.Lvt; Finfet.Library.Hvt ])
                (oneofl Finfet.Corners.all)
                (frequency [ (3, float_range 0.1 1.0); (1, float_range 0.1 0.3) ])))
         (fun (flavor, corner, vwl) ->
           let cell = Opt.Yield.cell_of ~corner flavor in
           let condition = Sram_cell.Sram6t.write0 ~vwl () in
           let r = Sram_cell.Dynamics.write_delay ~cell condition in
           let o = Oracle.Dynamics.write_delay ~cell condition in
           r.Sram_cell.Dynamics.flipped = o.Sram_cell.Dynamics.flipped
           && bits [| r.Sram_cell.Dynamics.delay; r.Sram_cell.Dynamics.wl_cross_time |]
              = bits [| o.Sram_cell.Dynamics.delay; o.Sram_cell.Dynamics.wl_cross_time |]));
    case "write levels below the flip point run the whole window unflipped" (fun () ->
        List.iter
          (fun cell ->
            List.iter
              (fun vwl ->
                let condition = Sram_cell.Sram6t.write0 ~vwl () in
                let r = Sram_cell.Dynamics.write_delay ~cell condition in
                let o = Oracle.Dynamics.write_delay ~cell condition in
                Alcotest.(check bool) "oracle unflipped" false o.Sram_cell.Dynamics.flipped;
                Alcotest.(check bool) "unflipped" false r.Sram_cell.Dynamics.flipped;
                Alcotest.(check (array int64)) "wl cross"
                  (bits [| o.Sram_cell.Dynamics.wl_cross_time |])
                  (bits [| r.Sram_cell.Dynamics.wl_cross_time |]))
              [ 0.10; 0.20 ])
          [ hvt; lvt ]) ]

let () =
  Alcotest.run "sram_cell"
    [ ("conditions", condition_tests);
      ("state", state_tests);
      ("butterfly", butterfly_tests);
      ("write", write_tests);
      ("dynamics", dynamics_tests);
      ("leakage", leakage_tests);
      ("dynamic", dynamic_tests);
      ("montecarlo", montecarlo_tests);
      ("oracle", oracle_tests) ]
