(* Benchmark / reproduction harness.

   With no arguments it regenerates every table and figure of the paper's
   evaluation (printing paper-vs-measured rows), runs the ablation studies
   called out in DESIGN.md, and finishes with Bechamel micro-benchmarks of
   the computational kernels (one Test.make per experiment family).

   With an argument it runs one experiment from the DESIGN.md index:
     fig2a fig2b fig3a fig3b fig3c fig3d fig5a fig5b
     table4 fig7a fig7b fig7c fig7d headline ablation timing *)

module J = Persist.Json

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

(* --smoke shrinks experiments to the reduced space at one capacity — a
   seconds-long end-to-end liveness check for `make check`. *)
let smoke = ref false

(* --no-json runs the full benchmarks without refreshing the committed
   BENCH_*.json baselines — for one-off runs under a non-default build
   profile (e.g. `make bench-kernel-opt`'s release build). *)
let no_json = ref false

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* ----- ablations (DESIGN.md section 5) ----- *)

let ablation_accounting () =
  section "Ablation: energy accounting (Table 3 verbatim vs physical multiplicities)";
  List.iter
    (fun (name, accounting) ->
      let h = Sram_edp.Framework.headline ~accounting () in
      Printf.printf
        "%-9s: avg EDP reduction %5.1f%%, delay penalty avg %4.1f%% / max %4.1f%%\n"
        name
        (100.0 *. h.Sram_edp.Framework.avg_edp_reduction)
        (100.0 *. h.Sram_edp.Framework.avg_delay_penalty)
        (100.0 *. h.Sram_edp.Framework.max_delay_penalty))
    [ ("strict", Array_model.Array_eval.Paper_strict);
      ("physical", Array_model.Array_eval.Physical) ];
  print_endline
    "(The paper's leakage-driven story needs its own per-component accounting;\n\
     physical per-bitline pricing shifts weight to switching energy and\n\
     compresses the HVT advantage.)"

let ablation_objective () =
  section "Ablation: optimization objective at 4KB, 6T-HVT-M2";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let table =
    Sram_edp.Report.create
      ~columns:[ "objective"; "org"; "V_SSC"; "delay"; "energy"; "EDP" ]
  in
  List.iter
    (fun objective ->
      let r =
        Opt.Exhaustive.search ~objective ~env ~capacity_bits:(4096 * 8)
          ~method_:Opt.Space.M2 ()
      in
      let b = r.Opt.Exhaustive.best in
      let g = b.Opt.Exhaustive.geometry in
      let m = b.Opt.Exhaustive.metrics in
      Sram_edp.Report.add_row table
        [ Opt.Objective.name objective;
          Printf.sprintf "%dx%d" g.Array_model.Geometry.nr g.Array_model.Geometry.nc;
          Sram_edp.Units.mv b.Opt.Exhaustive.assist.Array_model.Components.vssc;
          Sram_edp.Units.ps m.Array_model.Array_eval.d_array;
          Sram_edp.Units.fj m.Array_model.Array_eval.e_total;
          Printf.sprintf "%.3g Js" m.Array_model.Array_eval.edp ])
    Opt.Objective.all;
  Sram_edp.Report.print table

let ablation_anneal () =
  section "Ablation: search strategies (exhaustive vs annealing vs coordinate descent)";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "capacity"; "exhaustive"; "anneal (gap)"; "local search (gap)";
          "considered (exh/ann/ls)" ]
  in
  List.iter
    (fun capacity_bits ->
      let exact = Opt.Exhaustive.search ~env ~capacity_bits ~method_:Opt.Space.M2 () in
      let score (r : Opt.Exhaustive.result) = r.Opt.Exhaustive.best.Opt.Exhaustive.score in
      let describe (r : Opt.Exhaustive.result) =
        Printf.sprintf "%d evals (%s)" r.Opt.Exhaustive.evaluated
          (Sram_edp.Units.percent ((score r /. score exact) -. 1.0))
      in
      let annealed = Opt.Anneal.search ~seed:42 ~env ~capacity_bits ~method_:Opt.Space.M2 () in
      let local = Opt.Local_search.search ~env ~capacity_bits ~method_:Opt.Space.M2 () in
      Sram_edp.Report.add_row table
        [ Sram_edp.Units.capacity capacity_bits;
          Printf.sprintf "%d evals" exact.Opt.Exhaustive.evaluated;
          describe annealed;
          describe local;
          Printf.sprintf "%d / %d / %d" exact.Opt.Exhaustive.considered
            annealed.Opt.Exhaustive.considered
            local.Opt.Exhaustive.considered ])
    Sram_edp.Framework.paper_capacities;
  Sram_edp.Report.print table

let ablation_read_model () =
  section "Ablation: simulated stack current vs the paper's power-law fit";
  let at model =
    let env =
      Array_model.Array_eval.make_env ~read_current_model:model
        ~cell_flavor:Finfet.Library.Hvt ()
    in
    let r =
      Opt.Exhaustive.search ~env ~capacity_bits:(4096 * 8) ~method_:Opt.Space.M2 ()
    in
    r.Opt.Exhaustive.best
  in
  let sim = at `Simulated and fit = at `Paper_fit in
  let describe label (b : Opt.Exhaustive.candidate) =
    Printf.printf "%-10s: V_SSC=%s D=%s EDP=%.3g Js\n" label
      (Sram_edp.Units.mv b.Opt.Exhaustive.assist.Array_model.Components.vssc)
      (Sram_edp.Units.ps b.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array)
      b.Opt.Exhaustive.metrics.Array_model.Array_eval.edp
  in
  describe "simulated" sim;
  describe "paper fit" fit

let ablation_ksigma () =
  section "Ablation: simplified margin rule vs Monte Carlo mu - k sigma";
  let lib = Lazy.force Finfet.Library.default in
  let flavor = Finfet.Library.Hvt in
  let levels = Opt.Yield.solve ~flavor () in
  let pins = Opt.Space.pins_for Opt.Space.M2 levels in
  let samples =
    Sram_cell.Montecarlo.sample_margins ~points:31 ~seed:2026 ~n:40
      ~nfet:(Finfet.Library.nfet lib flavor)
      ~pfet:(Finfet.Library.pfet lib flavor)
      ~read_condition:(Sram_cell.Sram6t.read ~vddc:pins.Opt.Space.vddc ())
      ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:pins.Opt.Space.vwl ())
      ()
  in
  Printf.printf "HVT at pinned rails (V_DDC=%s, V_WL=%s), 40 MC samples:\n"
    (Sram_edp.Units.mv pins.Opt.Space.vddc) (Sram_edp.Units.mv pins.Opt.Space.vwl);
  List.iter
    (fun k ->
      let s = Sram_cell.Montecarlo.summarize ~k samples in
      Printf.printf "  k=%.0f: worst (mu - k sigma) = %s -> %s\n" k
        (Sram_edp.Units.mv s.Sram_cell.Montecarlo.worst_mu_minus_k_sigma)
        (if Sram_cell.Montecarlo.passes_k_sigma ~k samples then "PASS" else "FAIL"))
    [ 1.0; 3.0; 6.0 ];
  Printf.printf
    "  simplified rule (min margin >= %s at nominal corners): PASS by construction\n"
    (Sram_edp.Units.mv Finfet.Tech.min_margin);
  (* Re-pin the assist voltages under the k-sigma constraint itself and
     re-run the 4KB co-optimization — the "accurate way" end to end. *)
  List.iter
    (fun k ->
      let mc =
        Opt.Yield_mc.solve
          ~config:{ Opt.Yield_mc.default_config with Opt.Yield_mc.k }
          ~flavor ()
      in
      let injected =
        { Opt.Yield.vddc_min = mc.Opt.Yield_mc.vddc_min;
          vwl_min = mc.Opt.Yield_mc.vwl_min;
          hsnm_nominal = levels.Opt.Yield.hsnm_nominal }
      in
      let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
      let r =
        Opt.Exhaustive.search ~levels:injected ~env ~capacity_bits:(4096 * 8)
          ~method_:Opt.Space.M2 ()
      in
      let m = r.Opt.Exhaustive.best.Opt.Exhaustive.metrics in
      Printf.printf
        "  k=%.0f pins: V_DDC=%s V_WL=%s -> 4KB HVT-M2 D=%s EDP=%.3g Js\n" k
        (Sram_edp.Units.mv mc.Opt.Yield_mc.vddc_min)
        (Sram_edp.Units.mv mc.Opt.Yield_mc.vwl_min)
        (Sram_edp.Units.ps m.Array_model.Array_eval.d_array)
        m.Array_model.Array_eval.edp)
    [ 3.0; 6.0 ];
  Printf.printf
    "  (the simplified 35%%-of-Vdd pins were V_DDC=%s V_WL=%s)\n"
    (Sram_edp.Units.mv pins.Opt.Space.vddc)
    (Sram_edp.Units.mv pins.Opt.Space.vwl)

let ablation_validate () =
  section "Validation: Equation (1) vs distributed-RC column transient";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "column"; "condition"; "analytic"; "simulated"; "error" ]
  in
  List.iter
    (fun (nr, vssc, with_wire_resistance) ->
      let config =
        { Sram_cell.Column.default_config with
          Sram_cell.Column.nr; with_wire_resistance }
      in
      let r =
        Sram_cell.Column.validate ~cell config
          (Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
      in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%d rows%s" nr
            (if with_wire_resistance then "" else " (no wire R)");
          Printf.sprintf "V_SSC=%s" (Sram_edp.Units.mv vssc);
          Sram_edp.Units.ps r.Sram_cell.Column.analytic;
          Sram_edp.Units.ps r.Sram_cell.Column.simulated;
          Sram_edp.Units.percent r.Sram_cell.Column.relative_error ])
    [ (64, 0.0, true);
      (64, -0.240, true);
      (256, 0.0, true);
      (512, 0.0, true);
      (512, 0.0, false) ];
  Sram_edp.Report.print table;
  print_endline
    "(The paper's lumped C dV / I model neglects wire resistance; the error\n\
     it introduces stays in the single digits even at 512 rows.)";
  let wtable =
    Sram_edp.Report.create
      ~columns:[ "column"; "N_wr"; "analytic"; "simulated"; "error" ]
  in
  List.iter
    (fun (nr, n_wr) ->
      let config =
        { Sram_cell.Column.default_config with Sram_cell.Column.nr; n_wr }
      in
      let r = Sram_cell.Column.validate_write ~cell config in
      Sram_edp.Report.add_row wtable
        [ Printf.sprintf "%d rows" nr;
          string_of_int n_wr;
          Sram_edp.Units.ps r.Sram_cell.Column.analytic;
          Sram_edp.Units.ps r.Sram_cell.Column.simulated;
          Sram_edp.Units.percent r.Sram_cell.Column.relative_error ])
    [ (64, 1); (64, 4); (256, 2); (512, 2); (512, 8) ];
  Sram_edp.Report.print
    ~title:"Validation: Table 2's BL-write pricing vs a transmission-gate transient"
    wtable;
  print_endline
    "(The full-swing write model holds within ~20% while the transmission\n\
     gate is the bottleneck; once a strong buffer outruns the bitline's own\n\
     RC — 512 rows, 8 fins — the wire dominates and C dV / I underestimates\n\
     several-fold.  The optimizer's small N_wr choices keep it in the valid\n\
     regime.)"

let ablation_banking () =
  section "Extension: bank-count co-optimization, 64KB 6T-HVT-M2";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let best, all =
    Cache_model.Banked.optimize ~space:Opt.Space.reduced ~env
      ~capacity_bits:(64 * 1024 * 8) ~method_:Opt.Space.M2 ()
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "banks"; "H-tree"; "total delay"; "energy"; "EDP"; "" ]
  in
  List.iter
    (fun (d : Cache_model.Banked.bank_design) ->
      Sram_edp.Report.add_row table
        [ string_of_int d.Cache_model.Banked.banks;
          Sram_edp.Units.ps d.Cache_model.Banked.d_htree;
          Sram_edp.Units.ps d.Cache_model.Banked.d_total;
          Sram_edp.Units.fj d.Cache_model.Banked.e_total;
          Printf.sprintf "%.3g Js" d.Cache_model.Banked.edp;
          (if d.Cache_model.Banked.banks = best.Cache_model.Banked.banks
           then "<-- best" else "") ])
    all;
  Sram_edp.Report.print table

let ablation_corners () =
  section "Extension: five-corner signoff of the pinned HVT rails";
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Hvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Hvt in
  let table =
    Sram_edp.Report.create ~columns:[ "corner"; "HSNM"; "RSNM"; "WM"; "leakage" ]
  in
  List.iter
    (fun corner ->
      let cell = Finfet.Corners.cell corner ~nfet ~pfet in
      Sram_edp.Report.add_row table
        [ Finfet.Corners.name corner;
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell Finfet.Tech.vdd_nominal);
          Sram_edp.Units.mv
            (Sram_cell.Margins.read_snm ~points:41 ~cell
               (Sram_cell.Sram6t.read ~vddc:0.55 ()));
          Sram_edp.Units.mv
            (Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl:0.55 ()));
          Sram_edp.Units.nw (Sram_cell.Leakage.power ~cell ()) ])
    Finfet.Corners.all;
  Sram_edp.Report.print table

let ablation_eight_t () =
  section "Extension: 8T-LVT versus the paper's 6T-HVT proposal";
  Sram_edp.Eight_t.print_comparison ~capacity_bits:(4096 * 8);
  Sram_edp.Eight_t.print_comparison ~capacity_bits:(16384 * 8);
  print_endline
    "(The 8T cell fixes read stability structurally — RSNM = HSNM, no boost\n\
     rail — but keeps LVT leakage, adds a read-port leakage path and ~30%\n\
     area; the paper's HVT-plus-assists route wins the EDP comparison.)"

let ablation_workload () =
  section "Extension: workload sensitivity (alpha, beta from synthetic traces)";
  let rows = Workload.Sensitivity.study ~capacity_bits:(4096 * 8) () in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "workload"; "alpha"; "beta"; "V_SSC"; "delay"; "energy"; "EDP";
          "HVT advantage" ]
  in
  List.iter
    (fun (r : Workload.Sensitivity.study_row) ->
      Sram_edp.Report.add_row table
        [ r.Workload.Sensitivity.name;
          Printf.sprintf "%.2f" r.Workload.Sensitivity.alpha;
          Printf.sprintf "%.2f" r.Workload.Sensitivity.beta;
          Sram_edp.Units.mv r.Workload.Sensitivity.vssc;
          Sram_edp.Units.ps r.Workload.Sensitivity.d_array;
          Sram_edp.Units.fj r.Workload.Sensitivity.e_total;
          Printf.sprintf "%.3g Js" r.Workload.Sensitivity.edp;
          Sram_edp.Units.percent (-.r.Workload.Sensitivity.hvt_advantage) ])
    rows;
  Sram_edp.Report.print table;
  print_endline
    "(Idle-dominated workloads amplify the leakage term and with it the HVT\n\
     advantage — the paper's fixed alpha = 0.5 is the conservative case.)"

let ablation_thermal () =
  section "Extension: temperature derating (leakage and retention margin)";
  let lib = Lazy.force Finfet.Library.default in
  let table =
    Sram_edp.Report.create
      ~columns:[ "T"; "P_leak LVT"; "P_leak HVT"; "ratio"; "HSNM LVT"; "HSNM HVT" ]
  in
  List.iter
    (fun celsius ->
      let cell flavor =
        Finfet.Variation.nominal_cell
          ~nfet:(Finfet.Thermal.at_temperature ~celsius (Finfet.Library.nfet lib flavor))
          ~pfet:(Finfet.Thermal.at_temperature ~celsius (Finfet.Library.pfet lib flavor))
      in
      let lvt = cell Finfet.Library.Lvt and hvt = cell Finfet.Library.Hvt in
      let pl = Sram_cell.Leakage.power ~cell:lvt () in
      let ph = Sram_cell.Leakage.power ~cell:hvt () in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%.0f C" celsius;
          Sram_edp.Units.nw pl;
          Sram_edp.Units.nw ph;
          Printf.sprintf "%.1fx" (pl /. ph);
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell:lvt Finfet.Tech.vdd_nominal);
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt Finfet.Tech.vdd_nominal) ])
    [ 25.0; 85.0; 125.0 ];
  Sram_edp.Report.print table;
  print_endline
    "(Both flavors leak exponentially with temperature; the LVT/HVT ratio\n\
     narrows as kT erodes the fixed threshold gap, but HVT's retention\n\
     margin barely moves where LVT's drops 37 mV.)"

let ablation_stat_timing () =
  section "Extension: statistical sense timing (3-sigma slow-cell guardband)";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "V_SSC"; "nominal"; "mean"; "3-sigma slow"; "derate" ]
  in
  List.iter
    (fun vssc ->
      let g =
        Sram_cell.Stat_timing.bl_delay_guardband ~cell
          ~column:Sram_cell.Column.default_config
          ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
          ()
      in
      Sram_edp.Report.add_row table
        [ Sram_edp.Units.mv vssc;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.nominal_delay;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.mean_delay;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.k_sigma_delay;
          Printf.sprintf "%.2fx" g.Sram_cell.Stat_timing.derate ])
    [ 0.0; -0.120; -0.240 ];
  Sram_edp.Report.print table;
  print_endline
    "(Beyond its mean speedup, negative Gnd shrinks the relative spread of\n\
     the read current — the 3-sigma guardband falls from 1.58x to 1.19x —\n\
     because the added overdrive makes the stack less Vt-sensitive.)"

let ablation_dcdc () =
  section "Extension: derived DC-DC overheads (vs the assumed 1.25 factor)";
  List.iter
    (fun (label, v_out) ->
      Printf.printf "  %-22s eta=%.1f%%  overhead=%.3f\n" label
        (100.0 *. Array_model.Dcdc.efficiency ~v_out ())
        (Array_model.Dcdc.overhead ~v_out ()))
    [ ("V_DDC/V_WL = 550 mV", 0.550);
      ("V_WL (LVT) = 510 mV", 0.510);
      ("V_DDC (LVT) = 570 mV", 0.570);
      ("V_SSC = -240 mV", -0.240);
      ("V_SSC = -100 mV", -0.100) ];
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt in
  Printf.printf
    "  (fin-quantized WL-driver delay penalty vs continuous sizing: %.1f%% at 40 fF)\n"
    (100.0 *. Gates.Superbuffer.quantization_penalty ~nfet ~pfet ~c_load:40e-15);
  (* And the other fixed constant of Section 5: the sensing swing. *)
  let offset = Gates.Sa_offset.analyze ~n:150 ~nfet ~pfet () in
  Printf.printf
    "  sense-amp offset under mismatch: sigma = %s -> required swing %s (paper: Delta V_S = 120 mV)\n"
    (Sram_edp.Units.mv offset.Gates.Sa_offset.sigma)
    (Sram_edp.Units.mv offset.Gates.Sa_offset.required_swing)

let ablation_minarray () =
  section "Validation: end-to-end transistor-level array read/write";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let r =
    Sram_cell.Minarray.read_experiment ~nr:16 ~nc:4 ~cell
      (Sram_cell.Sram6t.read ~vddc:0.55 ())
  in
  Printf.printf
    "read, 16x4 cells (%d unknowns): sensed in %s vs %s analytic (%s);\n  accessed cell retains: %b; row mates retain: %b; other rows retain: %b\n"
    r.Sram_cell.Minarray.unknowns
    (Sram_edp.Units.ps r.Sram_cell.Minarray.sensed_delay)
    (Sram_edp.Units.ps r.Sram_cell.Minarray.analytic_delay)
    (Sram_edp.Units.percent r.Sram_cell.Minarray.relative_error)
    r.Sram_cell.Minarray.accessed_retains r.Sram_cell.Minarray.row_mates_retain
    r.Sram_cell.Minarray.unselected_retain;
  let w = Sram_cell.Minarray.write_experiment ~cell ~vwl:0.55 () in
  Printf.printf
    "write, 8x4 cells: target flipped in %s; half-selected mates survive: %b; other rows: %b\n"
    (Sram_edp.Units.ps w.Sram_cell.Minarray.write_delay)
    w.Sram_cell.Minarray.mates_survive w.Sram_cell.Minarray.others_survive;
  print_endline
    "(Every cell here is six real transistors; the sparse-LU DC path makes\nthe hundreds-of-unknowns transients tractable.)"

let ablation_segmented () =
  section "Extension: divided word-line architecture at the 16KB optimum";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let o =
    Sram_edp.Framework.optimize ~capacity_bits:(16384 * 8)
      ~config:{ Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                method_ = Opt.Space.M2 }
      ()
  in
  let g = Sram_edp.Framework.geometry o in
  let a = Sram_edp.Framework.assist o in
  let base = Sram_edp.Framework.metrics o in
  let table =
    Sram_edp.Report.create
      ~columns:[ "WL organization"; "WL delay"; "delay"; "energy"; "EDP" ]
  in
  Sram_edp.Report.add_row table
    [ "flat (paper)";
      Sram_edp.Units.ps
        (Array_model.Components.wl_read env.Array_model.Array_eval.dcaps
           env.Array_model.Array_eval.currents g a)
          .Array_model.Components.delay;
      Sram_edp.Units.ps base.Array_model.Array_eval.d_array;
      Sram_edp.Units.fj base.Array_model.Array_eval.e_total;
      Printf.sprintf "%.3g Js" base.Array_model.Array_eval.edp ];
  let max_segments = Array_model.Segmented.natural_segments g in
  let rec powers s acc = if s > max_segments then List.rev acc else powers (2 * s) (s :: acc) in
  List.iter
    (fun segments ->
      let b =
        Array_model.Segmented.wl env.Array_model.Array_eval.dcaps
          env.Array_model.Array_eval.currents g a ~segments
      in
      let m = Array_model.Segmented.evaluate env g a ~segments in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%d segments" segments;
          Sram_edp.Units.ps b.Array_model.Segmented.d_total;
          Sram_edp.Units.ps m.Array_model.Array_eval.d_array;
          Sram_edp.Units.fj m.Array_model.Array_eval.e_total;
          Printf.sprintf "%.3g Js" m.Array_model.Array_eval.edp ])
    (powers 2 []);
  Sram_edp.Report.print table;
  print_endline
    "(With enough segments the divided WL beats the paper's flat organization
     on both delay and energy — a natural extension of its architecture
     search space.)"

let ablation_vddc_pin () =
  section "Ablation: is pinning V_DDC at the yield minimum EDP-optimal? (paper's claim)";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let o =
    Sram_edp.Framework.optimize ~capacity_bits:(4096 * 8)
      ~config:{ Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                method_ = Opt.Space.M2 }
      ()
  in
  let g = Sram_edp.Framework.geometry o in
  let a = Sram_edp.Framework.assist o in
  Printf.printf "EDP of the 4KB optimum as V_DDC rises above its 550 mV pin:\n";
  List.iter
    (fun vddc ->
      let m =
        Array_model.Array_eval.evaluate env g
          { a with Array_model.Components.vddc }
      in
      Printf.printf "  V_DDC=%s: D=%s E=%s EDP=%.4g Js\n" (Sram_edp.Units.mv vddc)
        (Sram_edp.Units.ps m.Array_model.Array_eval.d_array)
        (Sram_edp.Units.fj m.Array_model.Array_eval.e_total)
        m.Array_model.Array_eval.edp)
    [ 0.55; 0.60; 0.65; 0.70 ];
  print_endline
    "(Delay barely moves while energy climbs - confirming the paper's\nargument for pinning V_DDC at the lowest yield-passing level.)"

let ablation_dynamic () =
  section "Extension: dynamic read stability (the static margin is conservative)";
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Hvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Hvt in
  let nominal = Finfet.Variation.nominal_cell ~nfet ~pfet in
  let weak =
    { nominal with
      Finfet.Variation.pull_down_l = Finfet.Device.with_vt nfet 0.47;
      Finfet.Variation.access_l = Finfet.Device.with_vt nfet 0.23 }
  in
  let cond = Sram_cell.Sram6t.read () in
  let rsnm = Sram_cell.Margins.read_snm ~points:41 ~cell:weak cond in
  Printf.printf "a 3-sigma-skewed cell: static RSNM = %s (statically rejected)\n"
    (Sram_edp.Units.mv rsnm);
  (match Sram_cell.Dynamic_stability.critical_pulse ~cell:weak ~condition:cond () with
   | Some p ->
     let sensing =
       Assist.Sweep.bl_delay_of_current ~flavor:Finfet.Library.Hvt
         (Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:(-0.24))
     in
     Printf.printf
       "  yet it survives WL pulses up to %s - while the assisted 64-row read\n  completes in %s, so dynamically the access is safe.\n"
       (Sram_edp.Units.ps p) (Sram_edp.Units.ps sensing)
   | None -> print_endline "  (cell unexpectedly stable)");
  print_endline
    "(Static-margin assist pinning is therefore conservative; a dynamic\nconstraint would admit lower boost levels - future work the framework\nalready supports measuring.)"

let ablation_array_yield () =
  section "Extension: statistical array yield vs the 35% margin proxy";
  let g = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:24 ~n_wr:2 () in
  let small = Array_model.Geometry.create ~nr:32 ~nc:32 ~n_pre:8 ~n_wr:1 () in
  let proxy = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
  Printf.printf "proxy rule (margins >= 35%% Vdd): V_DDC >= %s regardless of size\n"
    (Sram_edp.Units.mv proxy.Opt.Yield.vddc_min);
  List.iter
    (fun (label, geometry, spare_rows) ->
      let s =
        Opt.Array_yield.solve_vddc ~spare_rows ~flavor:Finfet.Library.Hvt
          ~geometry ()
      in
      Printf.printf
        "  %-22s 99%% array yield at V_DDC >= %s (yield %.4f, cell fail %.2g)\n"
        label (Sram_edp.Units.mv s.Opt.Array_yield.vddc_min)
        s.Opt.Array_yield.achieved_yield s.Opt.Array_yield.cell_fail)
    [ ("128B, no repair", small, 0);
      ("4KB, no repair", g, 0);
      ("4KB, 2 spare rows", g, 2) ];
  print_endline
    "(The direct yield computation is size-aware and less conservative than\nthe paper's fixed-threshold proxy; spare-row repair buys another grid\nstep of boost.)"

let ablations () =
  ablation_accounting ();
  ablation_objective ();
  ablation_anneal ();
  ablation_read_model ();
  ablation_ksigma ();
  ablation_validate ();
  ablation_banking ();
  ablation_corners ();
  ablation_eight_t ();
  ablation_workload ();
  ablation_thermal ();
  ablation_stat_timing ();
  ablation_dcdc ();
  ablation_segmented ();
  ablation_minarray ();
  ablation_vddc_pin ();
  ablation_dynamic ();
  ablation_array_yield ()

(* ----- Bechamel micro-benchmarks ----- *)

let timing () =
  section "Bechamel micro-benchmarks (time per run, OLS estimate)";
  let open Bechamel in
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let geometry = Array_model.Geometry.create ~nr:256 ~nc:512 ~n_pre:26 ~n_wr:3 () in
  let assist = { Array_model.Components.vddc = 0.55; vssc = -0.24; vwl = 0.55 } in
  let lib = Lazy.force Finfet.Library.default in
  let hvt_cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let tests =
    [ Test.make ~name:"fig2a/hold-snm"
        (Staged.stage (fun () ->
             ignore (Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt_cell 0.45)));
      Test.make ~name:"fig2b/leakage"
        (Staged.stage (fun () -> ignore (Sram_cell.Leakage.power ~cell:hvt_cell ())));
      Test.make ~name:"fig3/read-snm"
        (Staged.stage (fun () ->
             ignore
               (Sram_cell.Margins.read_snm ~points:41 ~cell:hvt_cell
                  (Sram_cell.Sram6t.read ~vddc:0.55 ()))));
      Test.make ~name:"fig3/stack-current"
        (Staged.stage (fun () ->
             ignore
               (Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:(-0.12))));
      Test.make ~name:"fig5/write-margin"
        (Staged.stage (fun () ->
             ignore
               (Sram_cell.Margins.write_margin ~cell:hvt_cell
                  (Sram_cell.Sram6t.write0 ~vwl:0.54 ()))));
      Test.make ~name:"table4/array-evaluate"
        (Staged.stage (fun () ->
             ignore (Array_model.Array_eval.evaluate env geometry assist)));
      Test.make ~name:"table4/exhaustive-search-1KB"
        (Staged.stage (fun () ->
             ignore
               (Opt.Exhaustive.search ~space:Opt.Space.reduced ~env
                  ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ())));
      Test.make ~name:"fig7/anneal-search-1KB"
        (Staged.stage (fun () ->
             ignore
               (Opt.Anneal.search ~space:Opt.Space.reduced
                  ~schedule:
                    { Opt.Anneal.initial_temperature = 0.3; cooling = 0.99; steps = 300 }
                  ~seed:1 ~env ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ())));
      Test.make ~name:"substrate/sparse-lu-200"
        (Staged.stage
           (let b = Numerics.Sparse.Builder.create ~n:200 in
            for i = 0 to 199 do
              Numerics.Sparse.Builder.add b i i 2.0;
              if i > 0 then Numerics.Sparse.Builder.add b i (i - 1) (-1.0);
              if i < 199 then Numerics.Sparse.Builder.add b i (i + 1) (-1.0)
            done;
            let a = Numerics.Sparse.of_builder b in
            let rhs = Array.make 200 1.0 in
            fun () -> ignore (Numerics.Sparse_lu.solve a rhs)));
      Test.make ~name:"substrate/ac-frequency-point"
        (Staged.stage
           (let n = Spice.Netlist.create () in
            let vin = Spice.Netlist.fresh_node n "vin" in
            let out = Spice.Netlist.fresh_node n "out" in
            Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:0.0;
            Spice.Netlist.resistor n ~plus:vin ~minus:out ~ohms:1000.0;
            Spice.Netlist.capacitor n ~plus:out ~minus:0 ~farads:1e-9;
            fun () ->
              ignore
                (Spice.Ac.at_frequency n ~source_index:0 ~output:out
                   ~frequency:1e5)));
      Test.make ~name:"substrate/dc-operating-point"
        (Staged.stage (fun () ->
             let netlist, _ =
               Sram_cell.Sram6t.build ~cell:hvt_cell (Sram_cell.Sram6t.read ())
             in
             ignore (Spice.Dc.operating_point netlist)));
      Test.make ~name:"substrate/write-transient"
        (Staged.stage (fun () ->
             ignore
               (Sram_cell.Dynamics.write_delay ~cell:hvt_cell
                  (Sram_cell.Sram6t.write0 ~vwl:0.55 ())))) ]
  in
  let grouped = Test.make_grouped ~name:"sram-edp" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let table = Sram_edp.Report.create ~columns:[ "kernel"; "time per run" ] in
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Sram_edp.Report.add_row table [ name; human ])
    (List.sort compare !rows);
  Sram_edp.Report.print table

(* ----- runtime scaling benchmark ----- *)

(* Cold Table 4 sweeps at 1 / 2 / 4 jobs: wall time, evaluation rate and
   the memo hit rates once the sweep is warm.  Results also land in
   BENCH_runtime.json for the docs. *)
let runtime_bench () =
  section "Runtime: parallel sweep scaling and memo effectiveness";
  Obs.Control.set_enabled true;
  let capacities = Sram_edp.Framework.paper_capacities in
  let configs = Sram_edp.Framework.all_configs in
  let runs =
    List.map
      (fun jobs ->
        Runtime.Memo.reset_all ();
        Runtime.Telemetry.reset ();
        let pool = Runtime.Pool.create ~jobs () in
        let t0 = Obs.Clock.now () in
        let designs =
          Sram_edp.Framework.sweep_capacities ~pool ~capacities ~configs ()
        in
        let wall = Obs.Clock.now () -. t0 in
        (* The identical sweep again: every design must come out of the
           framework.optimize memo. *)
        let t1 = Obs.Clock.now () in
        ignore (Sram_edp.Framework.sweep_capacities ~pool ~capacities ~configs ());
        let warm_wall = Obs.Clock.now () -. t1 in
        Runtime.Pool.shutdown pool;
        let evals =
          Runtime.Telemetry.value (Runtime.Telemetry.counter "exhaustive.search")
        in
        let memos =
          List.filter
            (fun (s : Runtime.Memo.stats) ->
              s.Runtime.Memo.hits + s.Runtime.Memo.misses > 0)
            (Runtime.Memo.registered_stats ())
        in
        (jobs, wall, warm_wall, List.length designs, evals, memos))
      [ 1; 2; 4 ]
  in
  let wall_1j =
    match runs with (_, w, _, _, _, _) :: _ -> w | [] -> nan
  in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "jobs"; "wall time"; "speedup"; "warm rerun"; "designs"; "evals";
          "evals/s" ]
  in
  List.iter
    (fun (jobs, wall, warm_wall, designs, evals, _) ->
      Sram_edp.Report.add_row table
        [ string_of_int jobs;
          Printf.sprintf "%.2f s" wall;
          Printf.sprintf "%.2fx" (wall_1j /. wall);
          Printf.sprintf "%.4f s" warm_wall;
          string_of_int designs;
          string_of_int evals;
          Printf.sprintf "%.0f" (float_of_int evals /. wall) ])
    runs;
  Sram_edp.Report.print table;
  (match runs with
   | (_, _, _, _, _, memos) :: _ ->
     print_endline "memo hit rates after cold + warm sweeps:";
     List.iter
       (fun (s : Runtime.Memo.stats) ->
         Printf.printf "  %-24s %6.1f%% (%d hits / %d misses)\n"
           s.Runtime.Memo.name
           (100.0 *. Runtime.Memo.hit_rate s)
           s.Runtime.Memo.hits s.Runtime.Memo.misses)
       memos
   | [] -> ());
  let json =
    J.Obj
      [ ("benchmark", J.String "table4-sweep");
        ("git_commit", J.String (Persist.Record_log.git_commit ()));
        ("host_cores", J.Int (Domain.recommended_domain_count ()));
        ("capacities_bits",
         J.List
           (List.map (fun c -> J.Int c) capacities));
        ("histograms", Sram_edp.Json_out.histograms_json ());
        ("runs",
         J.List
           (List.map
              (fun (jobs, wall, warm_wall, designs, evals, memos) ->
                J.Obj
                  [ ("jobs", J.Int jobs);
                    ("wall_s", J.Float wall);
                    ("speedup", J.Float (wall_1j /. wall));
                    ("warm_wall_s", J.Float warm_wall);
                    ("designs", J.Int designs);
                    ("evaluations", J.Int evals);
                    ("memos",
                     J.List
                       (List.map Sram_edp.Json_out.of_memo_stats memos)) ])
              runs)) ]
  in
  let oc = open_out "BENCH_runtime.json" in
  output_string oc (J.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_runtime.json"

(* ----- staged-kernel benchmark ----- *)

(* FNV-1a over the fields that define a chosen design: if two sweeps pick
   the same designs bit-for-bit, their checksums match.  Shared with the
   checkpoint tests, so the bench and the resume bit-identity gate agree
   on what "identical" means. *)
let checksum_designs = Opt.Exhaustive.checksum

(* One measured sweep: both wall clock and the caller domain's Gc word
   counters.  At jobs = 1 every evaluation runs on the caller domain, so
   the word deltas are the whole sweep's allocation; at jobs > 1 the
   caller is worker 0 and the deltas are that domain's share. *)
type kernel_run = {
  kr_jobs : int;
  kr_ref_wall : float;
  kr_stg_wall : float;
  kr_ref_evals : int;
  kr_stg_evals : int;
  kr_pruned : int;
  kr_skipped : int;   (* points abandoned mid-scan by suffix bounds *)
  kr_covered : int;   (* reference evals - staged evals (prune + skip) *)
  kr_considered : int;  (* full geometry x vssc product (deterministic) *)
  kr_stg_minor_w : float;
  kr_stg_major_w : float;
  kr_ref_sum : string;
  kr_stg_sum : string;
}

(* The Table 4 sweep through both evaluation kernels at 1/2/4 jobs:
   staged-vs-reference wall clock, evaluations skipped by the admissible
   bound, Gc allocation per evaluation, and a bit-identity checksum of
   the chosen designs.  Bypasses the framework memo on purpose — every
   run prices the full search (staging contexts are also reset, so each
   run stages cold).

   Exit status is a gate: a checksum divergence across kernels or job
   counts fails the run.  Under --smoke the committed BENCH_kernel.json
   baseline is enforced too (checksum equality and an evals/sec floor),
   which is the CI regression gate and the release-profile equality gate
   behind `make bench-kernel-opt`. *)
let kernel_bench () =
  section "Kernel: batched scan + bound pruning vs reference path";
  Obs.Control.set_enabled true;
  let space = if !smoke then Opt.Space.reduced else Opt.Space.default in
  let capacities =
    if !smoke then [ 1024 * 8 ] else Sram_edp.Framework.paper_capacities
  in
  let configs = Sram_edp.Framework.all_configs in
  (* Environments and yield pins are shared setup, hoisted out of the
     timed region for both kernels alike. *)
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    let hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let sweep ~pool ~kernel =
    List.concat_map
      (fun capacity_bits ->
        List.map
          (fun (c : Sram_edp.Framework.config) ->
            Opt.Exhaustive.search ~space ~kernel ~pool
              ~levels:(levels_of c.Sram_edp.Framework.flavor)
              ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
              ~method_:c.Sram_edp.Framework.method_ ())
          configs)
      capacities
  in
  let run jobs kernel =
    Runtime.Memo.reset_all ();
    Array_model.Array_eval.reset_staging ();
    let pool = Runtime.Pool.create ~jobs () in
    let gc0 = Gc.quick_stat () in
    let t0 = Obs.Clock.now () in
    let results = sweep ~pool ~kernel in
    let wall = Obs.Clock.now () -. t0 in
    let gc1 = Gc.quick_stat () in
    Runtime.Pool.shutdown pool;
    ( results, wall,
      gc1.Gc.minor_words -. gc0.Gc.minor_words,
      gc1.Gc.major_words -. gc0.Gc.major_words )
  in
  let sum f l = List.fold_left (fun acc r -> acc + f r) 0 l in
  let measure jobs =
    let ref_res, ref_wall, _, _ = run jobs `Reference in
    let stg_res, stg_wall, stg_minor, stg_major = run jobs `Staged in
    let ref_evals = sum (fun r -> r.Opt.Exhaustive.evaluated) ref_res in
    let stg_evals = sum (fun r -> r.Opt.Exhaustive.evaluated) stg_res in
    { kr_jobs = jobs;
      kr_ref_wall = ref_wall;
      kr_stg_wall = stg_wall;
      kr_ref_evals = ref_evals;
      kr_stg_evals = stg_evals;
      kr_pruned = sum (fun r -> r.Opt.Exhaustive.pruned) stg_res;
      kr_skipped = sum (fun r -> r.Opt.Exhaustive.skipped) stg_res;
      kr_covered = ref_evals - stg_evals;
      kr_considered = sum (fun r -> r.Opt.Exhaustive.considered) stg_res;
      kr_stg_minor_w = stg_minor;
      kr_stg_major_w = stg_major;
      kr_ref_sum = checksum_designs ref_res;
      kr_stg_sum = checksum_designs stg_res }
  in
  (* Reduced-space throughput probe shared by the --smoke gate and the
     full-run baseline recorder, so both numbers are produced by the
     same code under the same conditions.  One cold jobs-1 staged sweep
     of the reduced space lasts ~5 ms — short enough that scheduler and
     timer noise dominate a single sample — so the probe times several
     cold repetitions in one region and reports aggregate throughput. *)
  let smoke_probe () =
    let probe_space = Opt.Space.reduced in
    let probe_caps = [ 1024 * 8 ] in
    let reps = 10 in
    let pool = Runtime.Pool.create ~jobs:1 () in
    let decided = ref 0 in
    let sum_designs = ref "" in
    let t0 = Obs.Clock.now () in
    for _ = 1 to reps do
      Runtime.Memo.reset_all ();
      Array_model.Array_eval.reset_staging ();
      let results =
        List.concat_map
          (fun capacity_bits ->
            List.map
              (fun (c : Sram_edp.Framework.config) ->
                Opt.Exhaustive.search ~space:probe_space ~kernel:`Staged ~pool
                  ~levels:(levels_of c.Sram_edp.Framework.flavor)
                  ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
                  ~method_:c.Sram_edp.Framework.method_ ())
              configs)
          probe_caps
      in
      decided := !decided + sum (fun r -> r.Opt.Exhaustive.considered) results;
      sum_designs := checksum_designs results
    done;
    let wall = Obs.Clock.now () -. t0 in
    Runtime.Pool.shutdown pool;
    (!sum_designs, float_of_int !decided /. wall)
  in
  let rows = List.map measure [ 1; 2; 4 ] in
  let evals_per_sec r = float_of_int r.kr_stg_evals /. r.kr_stg_wall in
  (* Decided points per second: the search settles every point of the
     geometry x vssc product — by evaluating it or covering it with an
     admissible bound — and the product is the same for both kernels,
     so this is the throughput figure that stays comparable when a
     better kernel *evaluates less* (raw evals/s punishes pruning). *)
  let decided_per_sec r = float_of_int r.kr_considered /. r.kr_stg_wall in
  let words_per_eval r = r.kr_stg_minor_w /. float_of_int r.kr_stg_evals in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "jobs"; "reference"; "staged"; "speedup"; "decided/s"; "evals/s";
          "prune rate"; "minor w/eval"; "bit-identical" ]
  in
  List.iter
    (fun r ->
      Sram_edp.Report.add_row table
        [ string_of_int r.kr_jobs;
          Printf.sprintf "%.2f s" r.kr_ref_wall;
          Printf.sprintf "%.2f s" r.kr_stg_wall;
          Printf.sprintf "%.2fx" (r.kr_ref_wall /. r.kr_stg_wall);
          Printf.sprintf "%.1fM" (decided_per_sec r /. 1e6);
          Printf.sprintf "%.2fM" (evals_per_sec r /. 1e6);
          Sram_edp.Units.percent
            (float_of_int r.kr_covered /. float_of_int r.kr_ref_evals);
          Printf.sprintf "%.1f" (words_per_eval r);
          (if r.kr_ref_sum = r.kr_stg_sum then "yes" else "NO") ])
    rows;
  Sram_edp.Report.print table;
  let checksums = List.concat_map (fun r -> [ r.kr_ref_sum; r.kr_stg_sum ]) rows in
  let all_identical =
    match checksums with
    | [] -> true
    | first :: rest -> List.for_all (String.equal first) rest
  in
  Printf.printf "chosen designs identical across kernels and job counts: %s\n"
    (if all_identical then "yes" else "NO");
  let failures = ref [] in
  if not all_identical then
    failures := "kernel/job-count checksum divergence" :: !failures;
  if !smoke then begin
    (* Regression gate against the committed full-run baseline.  The
       baseline's [smoke_baseline] section was measured on this same
       reduced space, so the checksum must match bit-for-bit on any
       machine; throughput is machine-dependent, so the floor is 80% of
       baseline on the best of three trials (the row above plus two
       more), which damps scheduler noise without hiding a real
       regression. *)
    match read_file "BENCH_kernel.json" with
    | None ->
      print_endline
        "no committed BENCH_kernel.json — baseline gate skipped \
         (run the full kernel bench to create it)"
    | Some text -> (
      match J.of_string text with
      | Error e ->
        failures := Printf.sprintf "BENCH_kernel.json unreadable: %s" e :: !failures
      | Ok json -> (
        match J.member "smoke_baseline" json with
        | None ->
          print_endline
            "BENCH_kernel.json has no smoke_baseline — gate skipped \
             (re-run the full kernel bench to record one)"
        | Some base ->
          let expect_sum = J.string_field base "checksum" in
          let expect_eps = J.float_field base "decided_points_per_sec" in
          let probe_sum, eps0 = smoke_probe () in
          (match expect_sum with
           | Some s when s <> probe_sum ->
             failures :=
               Printf.sprintf
                 "checksum mismatch vs baseline: got %s, baseline %s"
                 probe_sum s
               :: !failures
           | _ -> ());
          (match expect_eps with
           | Some baseline_eps ->
             let best = Float.max eps0 (snd (smoke_probe ())) in
             Printf.printf
               "smoke throughput: %.2fM decided points/s (baseline %.2fM, \
                floor 80%%)\n"
               (best /. 1e6) (baseline_eps /. 1e6);
             if best < 0.8 *. baseline_eps then
               failures :=
                 Printf.sprintf
                   "decided points/sec regression: %.3g < 80%% of baseline %.3g"
                   best baseline_eps
                 :: !failures
           | None -> ())))
  end
  else begin
    (* Full run: measure the reduced-space jobs-1 throughput and
       checksum that --smoke gates against — through the same probe the
       gate uses — then (unless --no-json, the release-profile runs)
       refresh BENCH_kernel.json. *)
    let smoke_sum, eps0 = smoke_probe () in
    let smoke_eps = Float.max eps0 (snd (smoke_probe ())) in
    let json =
      J.Obj
        [ ("benchmark", J.String "staged-kernel");
          ("git_commit", J.String (Persist.Record_log.git_commit ()));
          ("host_cores",
           J.Int (Domain.recommended_domain_count ()));
          ("capacities_bits",
           J.List
             (List.map (fun c -> J.Int c) capacities));
          ("bit_identical", J.Bool all_identical);
          ("histograms", Sram_edp.Json_out.histograms_json ());
          ("smoke_baseline",
           J.Obj
             [ ("space", J.String "reduced");
               ("capacities_bits",
                J.List [ J.Int (1024 * 8) ]);
               ("jobs", J.Int 1);
               ("checksum", J.String smoke_sum);
               ("decided_points_per_sec", J.Float smoke_eps) ]);
          ("runs",
           J.List
             (List.map
                (fun r ->
                  J.Obj
                    [ ("jobs", J.Int r.kr_jobs);
                      ("reference_wall_s",
                       J.Float r.kr_ref_wall);
                      ("staged_wall_s", J.Float r.kr_stg_wall);
                      ("speedup",
                       J.Float
                         (r.kr_ref_wall /. r.kr_stg_wall));
                      ("evals_per_sec",
                       J.Float (evals_per_sec r));
                      ("decided_points_per_sec",
                       J.Float (decided_per_sec r));
                      ("considered_points",
                       J.Int r.kr_considered);
                      ("reference_evaluations",
                       J.Int r.kr_ref_evals);
                      ("staged_evaluations",
                       J.Int r.kr_stg_evals);
                      ("pruned_scans", J.Int r.kr_pruned);
                      ("evals_skipped_midscan",
                       J.Int r.kr_skipped);
                      ("evals_skipped", J.Int r.kr_covered);
                      ("prune_rate",
                       J.Float
                         (float_of_int r.kr_covered
                          /. float_of_int r.kr_ref_evals));
                      ("staged_minor_words",
                       J.Float r.kr_stg_minor_w);
                      ("staged_major_words",
                       J.Float r.kr_stg_major_w);
                      ("staged_minor_words_per_eval",
                       J.Float (words_per_eval r));
                      ("checksum_reference",
                       J.String r.kr_ref_sum);
                      ("checksum_staged",
                       J.String r.kr_stg_sum) ])
                rows)) ]
    in
    if !no_json then
      print_endline "--no-json: BENCH_kernel.json left untouched"
    else begin
      let oc = open_out "BENCH_kernel.json" in
      output_string oc (J.to_string_pretty json);
      output_char oc '\n';
      close_out oc;
      print_endline "wrote BENCH_kernel.json"
    end
  end;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "kernel bench GATE FAILED: %s\n") (List.rev fs);
    exit 1

(* ----- observability overhead benchmark ----- *)

(* Two questions the instrumentation must answer for:
     1. Does enabling histograms/tracing change which designs the search
        picks?  (It must not — checksums across off/stats/trace at 1/2/4
        jobs have to agree bit-for-bit.)
     2. What does the always-compiled-in instrumentation cost when it is
        actually recording?  (< 3% wall time on the staged Table 4 sweep,
        min-of-trials at 1 job so scheduler noise cannot hide a real
        regression.)
   Failing either check exits non-zero, so `make check` gates on it. *)
let obs_bench () =
  section "Observability: instrumentation overhead and determinism";
  let space = if !smoke then Opt.Space.reduced else Opt.Space.default in
  let capacities =
    if !smoke then [ 1024 * 8 ] else Sram_edp.Framework.paper_capacities
  in
  let configs = Sram_edp.Framework.all_configs in
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    let hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let sweep ~pool =
    List.concat_map
      (fun capacity_bits ->
        List.map
          (fun (c : Sram_edp.Framework.config) ->
            Opt.Exhaustive.search ~space ~kernel:`Staged ~pool
              ~levels:(levels_of c.Sram_edp.Framework.flavor)
              ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
              ~method_:c.Sram_edp.Framework.method_ ())
          configs)
      capacities
  in
  let mode_name = function `Off -> "off" | `Stats -> "stats" | `Trace -> "trace" in
  (* Coarse trace detail: the full sweep visits ~10^4 geometries and a
     fine trace of it is a memory benchmark, not an overhead one. *)
  let with_mode mode f =
    (match mode with
     | `Off -> Obs.Control.set_enabled false
     | `Stats -> Obs.Control.set_enabled true
     | `Trace ->
       Obs.Control.set_enabled true;
       Obs.Trace.start ~detail:`Coarse ());
    let r = f () in
    (match mode with `Trace -> Obs.Trace.stop () | `Off | `Stats -> ());
    Obs.Control.set_enabled false;
    r
  in
  (* Determinism: every mode at every job count picks the same designs. *)
  let modes = [ `Off; `Stats; `Trace ] in
  let sums =
    List.map
      (fun jobs ->
        let pool = Runtime.Pool.create ~jobs () in
        let per_mode =
          List.map
            (fun mode ->
              let res = with_mode mode (fun () -> sweep ~pool) in
              (mode_name mode, checksum_designs res))
            modes
        in
        Runtime.Pool.shutdown pool;
        (jobs, per_mode))
      [ 1; 2; 4 ]
  in
  let all_sums = List.concat_map (fun (_, pm) -> List.map snd pm) sums in
  let bit_identical =
    match all_sums with
    | [] -> true
    | first :: rest -> List.for_all (String.equal first) rest
  in
  let table =
    Sram_edp.Report.create ~columns:[ "jobs"; "off"; "stats"; "trace"; "identical" ]
  in
  List.iter
    (fun (jobs, per_mode) ->
      let sum m = List.assoc m per_mode in
      Sram_edp.Report.add_row table
        [ string_of_int jobs; sum "off"; sum "stats"; sum "trace";
          (if List.for_all (fun (_, s) -> String.equal s (sum "off")) per_mode
           then "yes" else "NO") ])
    sums;
  Sram_edp.Report.print table;
  (* Overhead: warm every memo first, then run off/stats back to back in
     each trial (alternating which goes first, so neither mode
     systematically inherits a warmer cache or a quieter slice of the
     host). *)
  let trials = 9 in
  let reps = if !smoke then 10 else 3 in
  let pool = Runtime.Pool.create ~jobs:1 () in
  ignore (sweep ~pool);
  let time_mode mode =
    let t0 = Obs.Clock.now () in
    with_mode mode (fun () ->
        for _ = 1 to reps do
          ignore (sweep ~pool)
        done);
    Obs.Clock.now () -. t0
  in
  (* Wall-time noise on a shared host is strictly additive — background
     load can only slow a trial down, never speed it up — so the
     minimum over trials of each mode is the cleanest estimate of its
     true cost, and the gate compares min(stats)/min(off).  (A median
     of per-trial ratios fails whenever a load burst outlasts half the
     trials, which a single-core container sees regularly.) *)
  let minimum l = List.fold_left min infinity l in
  let measure () =
    let off_walls = ref [] and stats_walls = ref [] in
    for i = 1 to trials do
      let stats_first = i land 1 = 0 in
      let w1 = time_mode (if stats_first then `Stats else `Off) in
      let w2 = time_mode (if stats_first then `Off else `Stats) in
      let off, st = if stats_first then (w2, w1) else (w1, w2) in
      off_walls := off :: !off_walls;
      stats_walls := st :: !stats_walls
    done;
    let off = minimum !off_walls and st = minimum !stats_walls in
    (off, st, (st /. off) -. 1.0)
  in
  let threshold = 0.03 in
  (* The real overhead sits near 1%, well under budget; one re-measure
     on a failing estimate keeps a sustained burst of background load
     from failing the gate while a genuine regression (which both
     rounds would show) still does. *)
  let wall_off, wall_stats, overhead =
    let ((_, _, ov1) as m1) = measure () in
    if ov1 < threshold then m1
    else begin
      let ((_, _, ov2) as m2) = measure () in
      if ov2 < ov1 then m2 else m1
    end
  in
  Runtime.Pool.shutdown pool;
  let pass = overhead < threshold in
  Printf.printf
    "instrumentation overhead (stats on vs off, min over %d paired %d-rep \
     trials): %.3f s vs %.3f s = %+.2f%% (budget %.0f%%) -> %s\n"
    trials reps wall_stats wall_off (100.0 *. overhead) (100.0 *. threshold)
    (if pass then "pass" else "FAIL");
  Printf.printf "chosen designs identical across modes and job counts: %s\n"
    (if bit_identical then "yes" else "NO");
  let json =
    J.Obj
      [ ("benchmark", J.String "observability-overhead");
        ("git_commit", J.String (Persist.Record_log.git_commit ()));
        ("host_cores", J.Int (Domain.recommended_domain_count ()));
        ("smoke", J.Bool !smoke);
        ("capacities_bits",
         J.List
           (List.map (fun c -> J.Int c) capacities));
        ("bit_identical", J.Bool bit_identical);
        ("overhead",
         J.Obj
           [ ("wall_off_s", J.Float wall_off);
             ("wall_stats_s", J.Float wall_stats);
             ("overhead", J.Float overhead);
             ("threshold", J.Float threshold);
             ("trials", J.Int trials);
             ("reps", J.Int reps);
             ("pass", J.Bool pass) ]);
        ("histograms", Sram_edp.Json_out.histograms_json ());
        ("runs",
         J.List
           (List.map
              (fun (jobs, per_mode) ->
                J.Obj
                  (("jobs", J.Int jobs)
                   :: List.map
                        (fun (m, s) ->
                          ("checksum_" ^ m, J.String s))
                        per_mode))
              sums)) ]
  in
  (* Like the kernel bench, --smoke never overwrites the committed
     full-space JSON. *)
  if not !smoke then begin
    let oc = open_out "BENCH_obs.json" in
    output_string oc (J.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_obs.json"
  end;
  if not (pass && bit_identical) then exit 1

(* ----- explain / search-journal benchmark ----- *)

(* Two gates for the introspection layer behind `sram_opt explain` and
   `--search-log`:
     1. Is the search journal observation-only?  Winners must be
        bit-identical with the journal armed and disarmed at 1/2/4
        jobs — the journal may watch the search, never steer it.
     2. Is it cheap?  (< 3% wall time on the staged sweep with the
        journal armed, same min-of-paired-trials methodology as
        [obs_bench].)
   BENCH_explain.json embeds the convergence journal of a fresh sweep
   plus the bound-gap histogram, so CI archives a convergence curve
   alongside the gate results. *)
let explain_bench () =
  section "Explain: search journal overhead and bit-identity";
  let capacities =
    if !smoke then [ 1024 * 8 ] else Sram_edp.Framework.paper_capacities
  in
  let configs = Sram_edp.Framework.all_configs in
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    let hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let sweep ~space ~pool () =
    List.concat_map
      (fun capacity_bits ->
        List.map
          (fun (c : Sram_edp.Framework.config) ->
            Opt.Exhaustive.search ~space ~kernel:`Staged ~pool
              ~levels:(levels_of c.Sram_edp.Framework.flavor)
              ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
              ~method_:c.Sram_edp.Framework.method_ ())
          configs)
      capacities
  in
  let with_journal armed f =
    if armed then Obs.Search.arm () else Obs.Search.disarm ();
    let r = f () in
    Obs.Search.disarm ();
    r
  in
  (* Bit-identity: the journal must not perturb the chosen designs.
     The reduced space is enough to exercise every hook, so smoke runs
     stay quick here. *)
  let bit_space = if !smoke then Opt.Space.reduced else Opt.Space.default in
  let sums =
    List.map
      (fun jobs ->
        let pool = Runtime.Pool.create ~jobs () in
        let off = with_journal false (sweep ~space:bit_space ~pool) in
        let on = with_journal true (sweep ~space:bit_space ~pool) in
        Runtime.Pool.shutdown pool;
        (jobs, checksum_designs off, checksum_designs on))
      [ 1; 2; 4 ]
  in
  let bit_identical =
    match sums with
    | [] -> true
    | (_, first, _) :: _ ->
      List.for_all
        (fun (_, off, on) -> String.equal off on && String.equal off first)
        sums
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "jobs"; "journal off"; "journal on"; "identical" ]
  in
  List.iter
    (fun (jobs, off, on) ->
      Sram_edp.Report.add_row table
        [ string_of_int jobs; off; on;
          (if String.equal off on then "yes" else "NO") ])
    sums;
  Sram_edp.Report.print table;
  (* Overhead: armed vs disarmed back to back in each trial, alternating
     order; min over trials (noise is additive, see obs_bench).
     Always the paper's full design space: journal cost scales with
     incumbent improvements (dozens per search regardless of space
     size), so a microscopic sweep would measure a fixed cost against a
     vanishing baseline and the percentage would be meaningless. *)
  let trials = 9 in
  let reps = if !smoke then 25 else 3 in
  let pool = Runtime.Pool.create ~jobs:1 () in
  let osweep = sweep ~space:Opt.Space.default ~pool in
  ignore (osweep ());
  let time_mode armed =
    let t0 = Obs.Clock.now () in
    with_journal armed (fun () ->
        for _ = 1 to reps do
          ignore (osweep ())
        done);
    Obs.Clock.now () -. t0
  in
  let minimum l = List.fold_left min infinity l in
  let measure () =
    let off_walls = ref [] and on_walls = ref [] in
    for i = 1 to trials do
      let on_first = i land 1 = 0 in
      let w1 = time_mode on_first in
      let w2 = time_mode (not on_first) in
      let off, on = if on_first then (w2, w1) else (w1, w2) in
      off_walls := off :: !off_walls;
      on_walls := on :: !on_walls
    done;
    let off = minimum !off_walls and on = minimum !on_walls in
    (off, on, (on /. off) -. 1.0)
  in
  let threshold = 0.03 in
  let wall_off, wall_on, overhead =
    let ((_, _, ov1) as m1) = measure () in
    if ov1 < threshold then m1
    else begin
      let ((_, _, ov2) as m2) = measure () in
      if ov2 < ov1 then m2 else m1
    end
  in
  Runtime.Pool.shutdown pool;
  let pass = overhead < threshold in
  Printf.printf
    "search journal overhead (armed vs disarmed, min over %d paired %d-rep \
     trials): %.3f s vs %.3f s = %+.2f%% (budget %.0f%%) -> %s\n"
    trials reps wall_on wall_off (100.0 *. overhead) (100.0 *. threshold)
    (if pass then "pass" else "FAIL");
  Printf.printf "winners identical with journal on and off at 1/2/4 jobs: %s\n"
    (if bit_identical then "yes" else "NO");
  (* One fresh journaled sweep with stats on, so the embedded journal
     carries the convergence curve and the bound-gap histogram fills. *)
  let pool = Runtime.Pool.create ~jobs:1 () in
  Obs.Search.arm ();
  Obs.Control.set_enabled true;
  ignore (sweep ~space:Opt.Space.default ~pool ());
  Obs.Control.set_enabled false;
  let journal = Sram_edp.Json_out.search_journal_json () in
  let s = Obs.Search.summary () in
  Obs.Search.disarm ();
  Runtime.Pool.shutdown pool;
  Printf.printf
    "convergence journal: %d incumbents, %d prunes, %d events stored\n"
    s.Obs.Search.incumbents s.Obs.Search.prunes s.Obs.Search.journaled;
  let json =
    J.Obj
      [ ("benchmark", J.String "explain-search-journal");
        ("git_commit", J.String (Persist.Record_log.git_commit ()));
        ("host_cores", J.Int (Domain.recommended_domain_count ()));
        ("smoke", J.Bool !smoke);
        ("capacities_bits",
         J.List
           (List.map (fun c -> J.Int c) capacities));
        ("bit_identical", J.Bool bit_identical);
        ("overhead",
         J.Obj
           [ ("wall_off_s", J.Float wall_off);
             ("wall_on_s", J.Float wall_on);
             ("overhead", J.Float overhead);
             ("threshold", J.Float threshold);
             ("trials", J.Int trials);
             ("reps", J.Int reps);
             ("pass", J.Bool pass) ]);
        ("search_journal", journal);
        ("histograms", Sram_edp.Json_out.histograms_json ());
        ("runs",
         J.List
           (List.map
              (fun (jobs, off, on) ->
                J.Obj
                  [ ("jobs", J.Int jobs);
                    ("checksum_off", J.String off);
                    ("checksum_on", J.String on) ])
              sums)) ]
  in
  if not !smoke then begin
    let oc = open_out "BENCH_explain.json" in
    output_string oc (J.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_explain.json"
  end;
  if not (pass && bit_identical) then exit 1

(* ----- multi-objective search benchmark ----- *)

(* The heuristic engines against the exhaustive oracle, on every
   Table 4 capacity (HVT-M2, the paper's headline config).  Four gates,
   all enforced on the committed BENCH_moo.json run:
     1. winner regret = 0 — NSGA-II and the surrogate land on the
        oracle's EDP optimum, score bit-for-bit;
     2. evaluations <= 5% of the oracle's [considered] (full space
        only: on the reduced smoke grid the surrogate falls back to
        exhaustive by design, so the budget gate would be vacuous);
     3. hypervolume of the returned front >= 99% of the true front's;
     4. same-seed runs bit-identical at 1/2/4 jobs.
   Under --smoke: reduced space, 1KB, jobs 1/2, gates 1/3/4 only. *)
let moo_bench () =
  section "Moo: NSGA-II + surrogate vs the exhaustive oracle";
  let space = if !smoke then Opt.Space.reduced else Opt.Space.default in
  let capacities =
    if !smoke then [ 1024 * 8 ] else Sram_edp.Framework.paper_capacities
  in
  let jobs_list = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let flavor = Finfet.Library.Hvt and method_ = Opt.Space.M2 in
  let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
  let levels = Opt.Yield.solve ~flavor () in
  let pairs cs =
    List.map (fun c -> let o = Opt.Pareto.objectives c in (o.(0), o.(1))) cs
  in
  let budget_gate = not !smoke in
  let budget_frac = 0.05 and hv_floor = 0.99 in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "capacity"; "engine"; "evals"; "of oracle"; "regret"; "hv ratio";
          "identical" ]
  in
  let all_pass = ref true in
  let runs =
    List.map
      (fun capacity_bits ->
        let pool = Runtime.Pool.create ~jobs:1 () in
        let oracle, all =
          Opt.Exhaustive.search_all ~space ~levels ~pool ~env ~capacity_bits
            ~method_ ()
        in
        Runtime.Pool.shutdown pool;
        let truth = pairs (Opt.Pareto.front all) in
        let engines =
          [ ("nsga2",
             fun pool ->
               Opt.Nsga2.search_front ~space ~levels ~pool ~env ~capacity_bits
                 ~method_ ());
            ("surrogate",
             fun pool ->
               Opt.Surrogate.search_front ~space ~levels ~pool ~env
                 ~capacity_bits ~method_ ()) ]
        in
        let per_engine =
          List.map
            (fun (name, search) ->
              let by_jobs =
                List.map
                  (fun jobs ->
                    let pool = Runtime.Pool.create ~jobs () in
                    let res, front = search pool in
                    Runtime.Pool.shutdown pool;
                    (jobs, res, front, checksum_designs [ res ]))
                  jobs_list
              in
              let _, res, front, first_sum = List.hd by_jobs in
              let identical =
                List.for_all
                  (fun (_, _, _, s) -> String.equal s first_sum)
                  by_jobs
              in
              let regret =
                res.Opt.Exhaustive.best.Opt.Exhaustive.score
                -. oracle.Opt.Exhaustive.best.Opt.Exhaustive.score
              in
              let frac =
                float_of_int res.Opt.Exhaustive.evaluated
                /. float_of_int oracle.Opt.Exhaustive.considered
              in
              let hv = Opt.Hypervolume.ratio ~truth (pairs front) in
              let pass =
                regret = 0.0 && identical && hv >= hv_floor
                && ((not budget_gate) || frac <= budget_frac)
              in
              if not pass then all_pass := false;
              Sram_edp.Report.add_row table
                [ Printf.sprintf "%dB" (capacity_bits / 8); name;
                  string_of_int res.Opt.Exhaustive.evaluated;
                  Printf.sprintf "%.2f%%" (100.0 *. frac);
                  Printf.sprintf "%.3g" regret;
                  Printf.sprintf "%.4f" hv;
                  (if identical then "yes" else "NO") ];
              ( name, res, regret, frac, hv, identical, pass,
                List.map (fun (j, _, _, s) -> (j, s)) by_jobs ))
            engines
        in
        (capacity_bits, oracle, per_engine))
      capacities
  in
  Sram_edp.Report.print table;
  Printf.printf
    "gates: regret = 0, hv ratio >= %.2f, bit-identical at jobs %s%s -> %s\n"
    hv_floor
    (String.concat "/" (List.map string_of_int jobs_list))
    (if budget_gate then
       Printf.sprintf ", evals <= %.0f%% of oracle" (100.0 *. budget_frac)
     else " (budget gate: full run only)")
    (if !all_pass then "pass" else "FAIL");
  let json =
    J.Obj
      [ ("benchmark", J.String "moo-oracle");
        ("git_commit", J.String (Persist.Record_log.git_commit ()));
        ("smoke", J.Bool !smoke);
        ("config", J.String "6T-HVT-M2");
        ("gates",
         J.Obj
           [ ("regret", J.Float 0.0);
             ("budget_frac", J.Float budget_frac);
             ("hv_ratio_floor", J.Float hv_floor);
             ("jobs",
              J.List
                (List.map (fun j -> J.Int j) jobs_list)) ]);
        ("capacities",
         J.List
           (List.map
              (fun (capacity_bits, oracle, per_engine) ->
                J.Obj
                  [ ("capacity_bits", J.Int capacity_bits);
                    ("oracle_considered",
                     J.Int oracle.Opt.Exhaustive.considered);
                    ("oracle_checksum",
                     J.String (checksum_designs [ oracle ]));
                    ("engines",
                     J.List
                       (List.map
                          (fun (name, res, regret, frac, hv, identical, pass,
                                sums) ->
                            J.Obj
                              [ ("engine", J.String name);
                                ("evaluated",
                                 J.Int
                                   res.Opt.Exhaustive.evaluated);
                                ("of_oracle", J.Float frac);
                                ("regret", J.Float regret);
                                ("hv_ratio", J.Float hv);
                                ("bit_identical",
                                 J.Bool identical);
                                ("pass", J.Bool pass);
                                ("checksums",
                                 J.List
                                   (List.map
                                      (fun (j, s) ->
                                        J.Obj
                                          [ ("jobs", J.Int j);
                                            ("checksum",
                                             J.String s) ])
                                      sums)) ])
                          per_engine)) ])
              runs)) ]
  in
  if not !smoke then begin
    let oc = open_out "BENCH_moo.json" in
    output_string oc (J.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_moo.json"
  end;
  if not !all_pass then exit 1

(* ----- persistence benchmark ----- *)

(* Two questions the persistence layer must answer for:
     1. Does kill+resume reproduce the uninterrupted winner bit-for-bit
        at 1/2/4 jobs?  (The tentpole guarantee: an injected kill mid-
        sweep, then --resume, must land on the same checksum.)
     2. What does journaling cost against the plain sweep?  (Reported;
        the gate is the bit-identity, not the overhead.) *)
let persist_bench () =
  section "Persist: checkpoint journal overhead + kill/resume bit-identity";
  Obs.Control.set_enabled true;
  let space = if !smoke then Opt.Space.reduced else Opt.Space.default in
  let capacities =
    if !smoke then [ 1024 * 8 ] else Sram_edp.Framework.paper_capacities
  in
  let configs = Sram_edp.Framework.all_configs in
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    let hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "sram_opt_bench_persist"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let every = 16 in
  let open_journal ?resume path =
    match Persist.Checkpoint.create ~path ?resume ~checkpoint_every:every () with
    | Ok j -> j
    | Error e -> failwith e
  in
  let sweep ?journal ~pool () =
    List.concat_map
      (fun capacity_bits ->
        List.map
          (fun (c : Sram_edp.Framework.config) ->
            Opt.Exhaustive.search ~space ?journal ~pool
              ~levels:(levels_of c.Sram_edp.Framework.flavor)
              ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
              ~method_:c.Sram_edp.Framework.method_ ())
          configs)
      capacities
  in
  let rows =
    List.map
      (fun jobs ->
        Persist.Faults.disarm_all ();
        let pool = Runtime.Pool.create ~jobs () in
        let t0 = Obs.Clock.now () in
        let base = sweep ~pool () in
        let plain_wall = Obs.Clock.now () -. t0 in
        let base_sum = checksum_designs base in
        let jp = Filename.concat dir (Printf.sprintf "full_%dj.rlog" jobs) in
        let journal = open_journal jp in
        let t0 = Obs.Clock.now () in
        let journaled = sweep ~journal ~pool () in
        let journal_wall = Obs.Clock.now () -. t0 in
        Persist.Checkpoint.close journal;
        let journal_sum = checksum_designs journaled in
        (* Kill the journaled sweep at an injected record boundary, then
           resume from the journal it left behind. *)
        let kp = Filename.concat dir (Printf.sprintf "kill_%dj.rlog" jobs) in
        let killed = open_journal kp in
        (* disarm_all also resets the process-wide record counter, so
           "kill after record 3" counts from this sweep's first record,
           not from the journaled run above. *)
        Persist.Faults.disarm_all ();
        Persist.Faults.arm (Persist.Faults.Kill 3);
        let died =
          match sweep ~journal:killed ~pool () with
          | _ -> false
          | exception Persist.Faults.Injected _ -> true
        in
        Persist.Checkpoint.close killed;
        Persist.Faults.disarm_all ();
        let resumed_journal = open_journal ~resume:true kp in
        let replayed = Persist.Checkpoint.replayed resumed_journal in
        let resumed = sweep ~journal:resumed_journal ~pool () in
        Persist.Checkpoint.close resumed_journal;
        let resumed_sum = checksum_designs resumed in
        Runtime.Pool.shutdown pool;
        Sys.remove jp;
        Sys.remove kp;
        (jobs, plain_wall, journal_wall, base_sum, journal_sum, resumed_sum,
         died, replayed))
      [ 1; 2; 4 ]
  in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "jobs"; "plain"; "journaled"; "overhead"; "killed"; "replayed";
          "bit-identical" ]
  in
  List.iter
    (fun (jobs, pw, jw, bs, js, rs, died, replayed) ->
      Sram_edp.Report.add_row table
        [ string_of_int jobs;
          Printf.sprintf "%.2f s" pw;
          Printf.sprintf "%.2f s" jw;
          Printf.sprintf "%+.1f%%" (100.0 *. ((jw /. pw) -. 1.0));
          (if died then "yes" else "NO");
          string_of_int replayed;
          (if bs = js && bs = rs then "yes" else "NO") ])
    rows;
  Sram_edp.Report.print table;
  let pass =
    List.for_all
      (fun (_, _, _, bs, js, rs, died, replayed) ->
        bs = js && bs = rs && died && replayed > 0)
      rows
  in
  Printf.printf
    "kill/resume reproduces the uninterrupted winner at every job count: %s\n"
    (if pass then "yes" else "NO");
  if not !smoke then begin
    let json =
      J.Obj
        [ ("benchmark", J.String "persist-checkpoint");
          ("git_commit", J.String (Persist.Record_log.git_commit ()));
          ("host_cores",
           J.Int (Domain.recommended_domain_count ()));
          ("capacities_bits",
           J.List
             (List.map (fun c -> J.Int c) capacities));
          ("checkpoint_every", J.Int every);
          ("pass", J.Bool pass);
          ("runs",
           J.List
             (List.map
                (fun (jobs, pw, jw, bs, js, rs, died, replayed) ->
                  J.Obj
                    [ ("jobs", J.Int jobs);
                      ("plain_wall_s", J.Float pw);
                      ("journal_wall_s", J.Float jw);
                      ("journal_overhead",
                       J.Float ((jw /. pw) -. 1.0));
                      ("killed", J.Bool died);
                      ("chunks_replayed", J.Int replayed);
                      ("checksum_plain", J.String bs);
                      ("checksum_journaled", J.String js);
                      ("checksum_resumed", J.String rs) ])
                rows)) ]
    in
    let oc = open_out "BENCH_persist.json" in
    output_string oc (J.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_persist.json"
  end;
  if not pass then exit 1

(* ----- serve: the daemon under concurrent clients ----- *)

(* The daemon is measured as a real separate process: fork a child that
   runs [Serve.Server.run] on a Unix socket under a temp dir, then
   drive it through [Serve.Client].  Client-side concurrency also comes
   from forked workers (the blocking client carries one outstanding
   request per connection), which keeps the parent free of worker
   domains: default jobs are forced to 1 before every fork, so only the
   server child ever spawns domains.

   Three gates (the --smoke run enforces them too):
     1. the server answers every request;
     2. a repeated query (warm memo) is faster than its cold first ask;
     3. every response checksum equals the in-process one-shot result
        for the same query — the wire adds no drift. *)

type serve_row = {
  sr_jobs : int;
  sr_cold_s : float;  (* median cold (first-ask) latency *)
  sr_warm_s : float;  (* median repeat-ask latency *)
  sr_p50_s : float;   (* client-observed, under concurrent load *)
  sr_p99_s : float;
  sr_win_p99_s : float option; (* server-side windowed e2e p99 (10s) *)
  sr_wall_s : float;
  sr_requests : int;
  sr_rps : float;
  sr_hits : int;      (* framework.optimize memo, from the stats endpoint *)
  sr_misses : int;
  sr_deadline_expired : int;  (* SLO counters, from stats *)
  sr_rejected_busy : int;
  sr_identical : bool;
  sr_server : J.t;  (* serve.* counters, from stats *)
  sr_windows : J.t; (* windowed histograms/counters *)
}

let serve_fork_server ~dir ?(observability = true) ?(tag = "") jobs =
  Runtime.Pool.set_default_jobs 1;
  let path = Filename.concat dir (Printf.sprintf "serve_%s%d.sock" tag jobs) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* Every jobs level starts cold, whatever the parent computed for
       its reference checksums before forking. *)
    Runtime.Memo.reset_all ();
    Runtime.Telemetry.reset ();
    Obs.Histogram.reset_all ();
    Runtime.Pool.set_default_jobs jobs;
    let cfg =
      { Serve.Server.default_config with
        Serve.Server.socket_path = Some path;
        install_signals = false;
        observability }
    in
    (try ignore (Serve.Server.run cfg) with _ -> ());
    Unix._exit 0
  | pid -> (pid, path)

let serve_queries () =
  let capacities = if !smoke then [ 1024 * 8 ] else [ 1024 * 8; 4096 * 8 ] in
  List.concat_map
    (fun capacity_bits ->
      List.map
        (fun (c : Sram_edp.Framework.config) ->
          { Serve.Protocol.default_query with
            Serve.Protocol.capacity_bits;
            flavor = c.Sram_edp.Framework.flavor;
            method_ = c.Sram_edp.Framework.method_;
            space = Serve.Protocol.reduced_override })
        Sram_edp.Framework.all_configs)
    capacities

let serve_reference_checksum (q : Serve.Protocol.query) =
  let o =
    Sram_edp.Framework.optimize
      ~space:(Serve.Protocol.space_of_override q.Serve.Protocol.space)
      ~objective:q.Serve.Protocol.objective
      ~accounting:q.Serve.Protocol.accounting ~w:q.Serve.Protocol.w
      ~capacity_bits:q.Serve.Protocol.capacity_bits
      ~config:
        { Sram_edp.Framework.flavor = q.Serve.Protocol.flavor;
          method_ = q.Serve.Protocol.method_ }
      ()
  in
  checksum_designs [ o.Sram_edp.Framework.result ]

let serve_median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let serve_percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* One worker process: its share of the load, latencies up the pipe as
   one "%.17g" line each.  Exit 0 = every response arrived and its
   decoded winner re-derives the server's checksum. *)
let serve_client_worker ~path ~queries ~reps wfd =
  Runtime.Memo.reset_all ();
  let oc = Unix.out_channel_of_descr wfd in
  let ok = ref true in
  (match Serve.Client.connect ~socket_path:path () with
  | Error _ -> ok := false
  | Ok c ->
    let n = List.length queries in
    for i = 0 to reps - 1 do
      let q = List.nth queries (i mod n) in
      let t0 = Unix.gettimeofday () in
      match Serve.Client.optimize c q with
      | Ok a ->
        let dt = Unix.gettimeofday () -. t0 in
        if checksum_designs [ a.Serve.Client.result ]
           <> a.Serve.Client.checksum
        then ok := false
        else Printf.fprintf oc "%.17g\n" dt
      | Error _ -> ok := false
    done;
    Serve.Client.close c);
  flush oc;
  Unix._exit (if !ok then 0 else 2)

let serve_load ~path ~queries ~clients ~reps =
  Runtime.Pool.set_default_jobs 1;
  flush stdout;
  flush stderr;
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init clients (fun _ ->
        let rfd, wfd = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close rfd;
          serve_client_worker ~path ~queries ~reps wfd
        | pid ->
          Unix.close wfd;
          (pid, rfd))
  in
  let latencies = ref [] in
  let all_ok = ref true in
  List.iter
    (fun (pid, rfd) ->
      let ic = Unix.in_channel_of_descr rfd in
      (try
         while true do
           latencies := float_of_string (input_line ic) :: !latencies
         done
       with End_of_file -> ());
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> all_ok := false)
    workers;
  let wall = Unix.gettimeofday () -. t0 in
  (Array.of_list !latencies, wall, !all_ok)

let serve_level ~dir ~queries ~refs ~clients ~reps jobs =
  let pid, path = serve_fork_server ~dir jobs in
  let give_up msg =
    Printf.printf "serve bench (%d jobs): %s\n" jobs msg;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    exit 1
  in
  match Serve.Client.wait_ready ~socket_path:path () with
  | Error e -> give_up ("server did not come up: " ^ e)
  | Ok c0 ->
    let ask q =
      let t0 = Unix.gettimeofday () in
      match Serve.Client.optimize c0 q with
      | Ok a -> (a, Unix.gettimeofday () -. t0)
      | Error e -> give_up ("optimize failed: " ^ e)
    in
    let cold = List.map ask queries in
    let warm = List.map ask queries in
    let identical =
      List.for_all2
        (fun (a, _) r -> a.Serve.Client.checksum = r)
        cold refs
      && List.for_all2
           (fun (a, _) r -> a.Serve.Client.checksum = r)
           warm refs
    in
    let lat_of pass = Array.of_list (List.map snd pass) in
    let latencies, wall, workers_ok =
      serve_load ~path ~queries ~clients ~reps
    in
    if not workers_ok then give_up "a load-generator worker failed";
    let requests = Array.length latencies in
    if requests <> clients * reps then give_up "lost responses under load";
    let hits, misses, deadlines, busies, win_p99, server_counters, windows =
      match Serve.Client.stats c0 with
      | Error e -> give_up ("stats failed: " ^ e)
      | Ok stats ->
        let hm =
          match J.member "memos" stats with
          | Some (J.List memos) ->
            List.fold_left
              (fun acc m ->
                match J.string_field m "name" with
                | Some "framework.optimize" -> (
                  match
                    ( J.int_field m "hits",
                      J.int_field m "misses" )
                  with
                  | Some h, Some mi -> (h, mi)
                  | _ -> acc)
                | _ -> acc)
              (0, 0) memos
          | _ -> (0, 0)
        in
        let counters =
          match J.member "server" stats with
          | Some s -> s
          | None -> J.Null
        in
        let server_int name =
          match J.member "server" stats with
          | Some s -> Option.value ~default:0 (J.int_field s name)
          | None -> 0
        in
        (* Windowed e2e p99 from the stats `windows` section — the
           server's own recent-traffic view, alongside the client-side
           percentile over the same load. *)
        let win_p99 =
          let ( >>= ) = Option.bind in
          J.member "windows" stats
          >>= J.member "histograms"
          >>= (function
                | J.List rows ->
                  List.find_opt
                    (fun r ->
                      J.string_field r "name" = Some "serve.e2e")
                    rows
                | _ -> None)
          >>= J.member "windows"
          >>= (function
                | J.List slices ->
                  List.find_opt
                    (fun s ->
                      J.string_field s "window" = Some "10s")
                    slices
                | _ -> None)
          >>= fun s -> J.float_field s "p99_s"
        in
        let windows =
          match J.member "windows" stats with
          | Some w -> w
          | None -> J.Null
        in
        ( fst hm, snd hm,
          server_int "deadline_expired", server_int "rejected_busy",
          win_p99, counters, windows )
    in
    (match Serve.Client.shutdown c0 with
    | Ok () -> ()
    | Error e -> give_up ("shutdown failed: " ^ e));
    Serve.Client.close c0;
    ignore (Unix.waitpid [] pid);
    { sr_jobs = jobs;
      sr_cold_s = serve_median (lat_of cold);
      sr_warm_s = serve_median (lat_of warm);
      sr_p50_s = serve_percentile latencies 0.50;
      sr_p99_s = serve_percentile latencies 0.99;
      sr_win_p99_s = win_p99;
      sr_wall_s = wall;
      sr_requests = requests;
      sr_rps = float_of_int requests /. wall;
      sr_hits = hits;
      sr_misses = misses;
      sr_deadline_expired = deadlines;
      sr_rejected_busy = busies;
      sr_identical = identical;
      sr_server = server_counters;
      sr_windows = windows }

(* ----- observability overhead gate ----- *)

(* Tracing, windowed metrics and the flight recorder ride the request
   path; this gate bounds their cost.  Two servers run side by side —
   one default (observability on), one with it off — and the warm
   round-trip latency to each is compared with paired trials: every
   trial measures both sides back-to-back in alternating order, each
   side keeps its min over trials (least-noise estimate), and a
   failing comparison is re-measured once before it counts, so a
   single descheduling blip cannot fail CI.  Both answers must still
   re-derive the one-shot reference checksum. *)
let serve_overhead_threshold = 0.03

let serve_overhead_trials = 9

let serve_overhead_gate ~dir ~reference q =
  let fail msg =
    Printf.printf "serve overhead gate: %s\n" msg;
    exit 1
  in
  let spawn observability tag =
    let pid, path = serve_fork_server ~dir ~observability ~tag 1 in
    match Serve.Client.wait_ready ~socket_path:path () with
    | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      fail ("server did not come up: " ^ e)
    | Ok c -> (pid, c)
  in
  let pid_on, c_on = spawn true "obs_on_" in
  let pid_off, c_off = spawn false "obs_off_" in
  let ask c =
    match Serve.Client.optimize c q with
    | Ok a -> a.Serve.Client.checksum
    | Error e -> fail ("optimize failed: " ^ e)
  in
  let identical = ask c_on = reference && ask c_off = reference in
  (* Warm round-trips are ~60µs, so even 256 reps per measurement is
     ~15ms — cheap enough to keep the floor estimator tight in smoke
     runs too (a loose floor, not real overhead, is what flakes). *)
  let reps = if !smoke then 200 else 256 in
  (* Per-trial statistic is the MIN round-trip, not the median: the
     floor is the deterministic cost of the path, while the median
     still carries scheduler and GC noise that dwarfs the few-µs
     effect being bounded here.  The monotonic clock matters too —
     gettimeofday's 1µs quantization alone is ±2% of one round-trip. *)
  let measure c =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Obs.Clock.now () in
      ignore (ask c);
      let dt = Obs.Clock.now () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let run_trials () =
    let best_on = ref infinity and best_off = ref infinity in
    for t = 0 to serve_overhead_trials - 1 do
      if t mod 2 = 0 then begin
        best_on := min !best_on (measure c_on);
        best_off := min !best_off (measure c_off)
      end
      else begin
        best_off := min !best_off (measure c_off);
        best_on := min !best_on (measure c_on)
      end
    done;
    (!best_on, !best_off)
  in
  let on_s, off_s = run_trials () in
  let on_s, off_s =
    if (on_s -. off_s) /. off_s < serve_overhead_threshold then (on_s, off_s)
    else begin
      let on2, off2 = run_trials () in
      (min on_s on2, min off_s off2)
    end
  in
  List.iter
    (fun (pid, c) ->
      (match Serve.Client.shutdown c with
      | Ok () -> ()
      | Error e -> fail ("shutdown failed: " ^ e));
      Serve.Client.close c;
      ignore (Unix.waitpid [] pid))
    [ (pid_on, c_on); (pid_off, c_off) ];
  let overhead = (on_s -. off_s) /. off_s in
  (on_s, off_s, overhead, identical)

let serve_bench () =
  section "Serve: daemon latency/throughput under concurrent clients";
  Obs.Control.set_enabled true;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "sram_opt_bench_serve"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let queries = serve_queries () in
  let refs = List.map serve_reference_checksum queries in
  let clients = if !smoke then 2 else 4 in
  let reps = if !smoke then 8 else 64 in
  let jobs_list = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf
    "%d distinct queries (reduced space), %d clients x %d requests each\n"
    (List.length queries) clients reps;
  let rows = List.map (serve_level ~dir ~queries ~refs ~clients ~reps) jobs_list in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "jobs"; "cold"; "warm"; "speedup"; "p50"; "p99"; "win p99"; "req/s";
          "memo hits"; "bit-identical" ]
  in
  List.iter
    (fun r ->
      Sram_edp.Report.add_row table
        [ string_of_int r.sr_jobs;
          Printf.sprintf "%.2f ms" (1e3 *. r.sr_cold_s);
          Printf.sprintf "%.3f ms" (1e3 *. r.sr_warm_s);
          Printf.sprintf "%.0fx" (r.sr_cold_s /. r.sr_warm_s);
          Printf.sprintf "%.3f ms" (1e3 *. r.sr_p50_s);
          Printf.sprintf "%.3f ms" (1e3 *. r.sr_p99_s);
          (match r.sr_win_p99_s with
          | Some p -> Printf.sprintf "%.3f ms" (1e3 *. p)
          | None -> "-");
          Printf.sprintf "%.0f" r.sr_rps;
          Printf.sprintf "%d/%d" r.sr_hits (r.sr_hits + r.sr_misses);
          (if r.sr_identical then "yes" else "NO") ])
    rows;
  Sram_edp.Report.print table;
  let on_s, off_s, overhead, overhead_identical =
    serve_overhead_gate ~dir ~reference:(List.hd refs) (List.hd queries)
  in
  let overhead_pass =
    overhead < serve_overhead_threshold && overhead_identical
  in
  Printf.printf
    "observability overhead: warm %.1f us on / %.1f us off -> %+.1f%% \
     (gate < %.0f%%, bit-identical %s): %s\n"
    (1e6 *. on_s) (1e6 *. off_s) (100.0 *. overhead)
    (100.0 *. serve_overhead_threshold)
    (if overhead_identical then "yes" else "NO")
    (if overhead_pass then "pass" else "FAIL");
  let pass =
    List.for_all (fun r -> r.sr_identical && r.sr_warm_s < r.sr_cold_s) rows
    && overhead_pass
  in
  Printf.printf
    "server answers, warm beats cold, responses match the one-shot CLI: %s\n"
    (if pass then "yes" else "NO");
  if not !smoke then begin
    let json =
      J.Obj
        [ ("benchmark", J.String "serve");
          ("git_commit", J.String (Persist.Record_log.git_commit ()));
          ("host_cores",
           J.Int (Domain.recommended_domain_count ()));
          ("queries", J.Int (List.length queries));
          ("clients", J.Int clients);
          ("requests_per_client", J.Int reps);
          ("pass", J.Bool pass);
          ("observability_overhead",
           J.Obj
             [ ("trials", J.Int serve_overhead_trials);
               ("warm_on_s", J.Float on_s);
               ("warm_off_s", J.Float off_s);
               ("overhead", J.Float overhead);
               ("threshold",
                J.Float serve_overhead_threshold);
               ("bit_identical",
                J.Bool overhead_identical);
               ("pass", J.Bool overhead_pass) ]);
          ("runs",
           J.List
             (List.map
                (fun r ->
                  J.Obj
                    ([ ("jobs", J.Int r.sr_jobs);
                       ("cold_median_s", J.Float r.sr_cold_s);
                       ("warm_median_s", J.Float r.sr_warm_s);
                       ("warm_speedup",
                        J.Float (r.sr_cold_s /. r.sr_warm_s));
                       ("load_p50_s", J.Float r.sr_p50_s);
                       ("load_p99_s", J.Float r.sr_p99_s) ]
                    @ (match r.sr_win_p99_s with
                      | Some p ->
                        [ ("windowed_e2e_p99_s", J.Float p) ]
                      | None -> [])
                    @ [ ("load_wall_s", J.Float r.sr_wall_s);
                        ("requests", J.Int r.sr_requests);
                        ("requests_per_s", J.Float r.sr_rps);
                        ("memo_hits", J.Int r.sr_hits);
                        ("memo_misses", J.Int r.sr_misses);
                        ("deadline_expired",
                         J.Int r.sr_deadline_expired);
                        ("rejected_busy",
                         J.Int r.sr_rejected_busy);
                        ("bit_identical",
                         J.Bool r.sr_identical);
                        ("server", r.sr_server);
                        ("windows", r.sr_windows) ]))
                rows)) ]
    in
    let oc = open_out "BENCH_serve.json" in
    output_string oc (J.to_string_pretty json);
    output_char oc '\n';
    close_out oc;
    print_endline "wrote BENCH_serve.json"
  end;
  if not pass then exit 1

(* ----- dispatch ----- *)

let headline_smoke () =
  section "Headline (smoke: reduced space, 1KB, M2 HVT vs LVT)";
  let h =
    Sram_edp.Framework.headline ~space:Opt.Space.reduced
      ~capacities:[ 1024 * 8 ] ()
  in
  Printf.printf
    "EDP reduction %.1f%%, delay penalty %.1f%% (reduced space; paper-space \
     numbers come from the full headline run)\n"
    (100.0 *. h.Sram_edp.Framework.avg_edp_reduction)
    (100.0 *. h.Sram_edp.Framework.avg_delay_penalty)

let run_one = function
  | "fig2a" | "fig2b" -> Sram_edp.Experiments.print_fig2 ()
  | "fig3a" -> Sram_edp.Experiments.print_fig3a ()
  | "fig3b" | "fig3c" | "fig3d" -> Sram_edp.Experiments.print_fig3bcd ()
  | "fig5a" | "fig5b" -> Sram_edp.Experiments.print_fig5 ()
  | "table4" -> Sram_edp.Experiments.print_table4 ()
  | "fig7a" | "fig7b" | "fig7c" -> Sram_edp.Experiments.print_fig7 ()
  | "fig7d" -> Sram_edp.Experiments.print_fig7d ()
  | "headline" ->
    if !smoke then headline_smoke () else Sram_edp.Experiments.print_headline ()
  | "ablation" -> ablations ()
  | "timing" -> timing ()
  | "runtime" -> runtime_bench ()
  | "kernel" -> kernel_bench ()
  | "obs" -> obs_bench ()
  | "explain" -> explain_bench ()
  | "moo" -> moo_bench ()
  | "persist" -> persist_bench ()
  | "serve" -> serve_bench ()
  | "all" ->
    Sram_edp.Experiments.run_all ();
    ablations ();
    timing ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (try fig2a..fig7d, table4, headline, ablation, \
       timing, runtime, kernel, obs, explain, moo, persist, serve, all)\n"
      other;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, experiments = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  List.iter
    (function
      | "--smoke" -> smoke := true
      | "--no-json" -> no_json := true
      | other ->
        Printf.eprintf "unknown flag %S (try --smoke, --no-json)\n" other;
        exit 1)
    flags;
  match experiments with
  | [] -> run_one "all"
  | names -> List.iter run_one names
