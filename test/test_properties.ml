(* Property-based tests: randomized invariants across every layer,
   registered as alcotest cases via QCheck_alcotest. *)

let lib = Lazy.force Finfet.Library.default
let nfet_hvt = Finfet.Library.nfet lib Finfet.Library.Hvt
let pfet_hvt = Finfet.Library.pfet lib Finfet.Library.Hvt

let dcaps = Array_model.Caps.device_caps_of ~nfet:nfet_hvt ~pfet:pfet_hvt ()

(* Generators *)

let pow2 lo hi =
  QCheck.map (fun k -> 1 lsl k) (QCheck.int_range lo hi)

let geometry_gen =
  QCheck.map
    (fun (((nr, nc), n_pre), n_wr) ->
      Array_model.Geometry.create ~nr ~nc ~n_pre ~n_wr ())
    QCheck.(pair (pair (pair (pow2 1 10) (pow2 0 10)) (int_range 1 50)) (int_range 1 20))

let assist_gen =
  QCheck.map
    (fun ((vddc_step, vssc_step), vwl_step) ->
      { Array_model.Components.vddc = 0.45 +. (0.01 *. float_of_int vddc_step);
        vssc = -0.01 *. float_of_int vssc_step;
        vwl = 0.45 +. (0.01 *. float_of_int vwl_step) })
    QCheck.(pair (pair (int_bound 25) (int_bound 24)) (int_bound 25))

(* --- numerics --- *)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile endpoints are min and max" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 40) (float_range (-100.0) 100.0))
    (fun xs ->
      let lo = Array.fold_left min infinity xs in
      let hi = Array.fold_left max neg_infinity xs in
      Numerics.Stats.percentile xs ~p:0.0 = lo
      && Numerics.Stats.percentile xs ~p:100.0 = hi)

let prop_brent_cubic =
  QCheck.Test.make ~name:"brent solves random shifted cubics" ~count:200
    QCheck.(float_range (-3.0) 3.0)
    (fun root ->
      let f x = ((x -. root) ** 3.0) +. (0.5 *. (x -. root)) in
      let solved = Numerics.Roots.brent f ~lo:(root -. 10.0) ~hi:(root +. 10.0) in
      abs_float (solved -. root) < 1e-6)

let prop_table1d_clamp_bounds =
  QCheck.Test.make ~name:"clamped table stays within its data range" ~count:200
    QCheck.(pair (array_of_size (Gen.int_range 2 10) (float_range 0.0 10.0))
              (float_range (-5.0) 15.0))
    (fun (ys, x) ->
      let xs = Array.init (Array.length ys) float_of_int in
      let t = Numerics.Interp.Table1d.create xs ys in
      let lo = Array.fold_left min infinity ys in
      let hi = Array.fold_left max neg_infinity ys in
      let v = Numerics.Interp.Table1d.eval t x in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

let prop_power_law_roundtrip =
  QCheck.Test.make ~name:"power-law fit recovers random parameters" ~count:60
    QCheck.(triple (float_range 1.0 2.0) (float_range 1e-5 1e-3) (float_range 0.1 0.3))
    (fun (a, b, vt) ->
      let vs = Array.init 12 (fun i -> vt +. 0.1 +. (0.04 *. float_of_int i)) in
      let is_ = Array.map (fun v -> b *. ((v -. vt) ** a)) vs in
      let fit = Numerics.Fit.power_law ~vt_lo:0.0 ~vt_hi:(vt +. 0.09) vs is_ in
      abs_float (fit.Numerics.Fit.a -. a) < 0.02
      && fit.Numerics.Fit.rms_error < 1e-3)

(* --- spice --- *)

let prop_divider =
  QCheck.Test.make ~name:"random resistor dividers solve exactly" ~count:100
    QCheck.(pair (float_range 10.0 1e6) (float_range 10.0 1e6))
    (fun (r1, r2) ->
      let n = Spice.Netlist.create () in
      let vin = Spice.Netlist.fresh_node n "vin" in
      let mid = Spice.Netlist.fresh_node n "mid" in
      Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:1.0;
      Spice.Netlist.resistor n ~plus:vin ~minus:mid ~ohms:r1;
      Spice.Netlist.resistor n ~plus:mid ~minus:0 ~ohms:r2;
      let s = Spice.Dc.operating_point n in
      abs_float (Spice.Dc.node_voltage s mid -. (r2 /. (r1 +. r2))) < 1e-5)

let prop_step_waveform_bounds =
  QCheck.Test.make ~name:"step waveforms stay between their levels" ~count:200
    QCheck.(triple (float_range 0.0 1.0) (float_range 0.0 1.0) (float_range (-1.0) 3.0))
    (fun (v0, v1, t) ->
      let w = Spice.Netlist.Step { t_delay = 0.5; t_rise = 1.0; v0; v1 } in
      let v = Spice.Netlist.waveform_at w t in
      v >= min v0 v1 -. 1e-12 && v <= max v0 v1 +. 1e-12)

(* --- device --- *)

let prop_ids_monotone_vgs =
  QCheck.Test.make ~name:"drain current is monotone in vgs at any vds" ~count:200
    QCheck.(triple (float_range 0.02 0.8) (float_range 0.0 0.75) (float_range 0.001 0.05))
    (fun (vds, vgs, dv) ->
      Finfet.Device.ids nfet_hvt ~vgs:(vgs +. dv) ~vds
      >= Finfet.Device.ids nfet_hvt ~vgs ~vds)

let prop_stack_bounded_by_pull_down =
  QCheck.Test.make
    ~name:"series stack current never exceeds the lone pull-down's" ~count:100
    QCheck.(pair (float_range 0.45 0.7) (float_range 0.0 0.24))
    (fun (vddc, depth) ->
      let vssc = -.depth in
      let stack =
        Finfet.Calibration.stack_read_current ~access:nfet_hvt
          ~pull_down:nfet_hvt ~vwl:0.45 ~vbl:0.45 ~vddc ~vssc
      in
      let lone =
        Finfet.Device.ids nfet_hvt ~vgs:(vddc -. vssc) ~vds:(0.45 -. vssc)
      in
      stack <= lone +. 1e-12)

(* --- array model --- *)

let prop_caps_positive =
  QCheck.Test.make ~name:"all Table 1 capacitances are positive" ~count:200
    geometry_gen
    (fun g ->
      Array_model.Caps.cvdd dcaps g > 0.0
      && Array_model.Caps.cvss dcaps g > 0.0
      && Array_model.Caps.wl dcaps g > 0.0
      && Array_model.Caps.bl dcaps g > 0.0
      && Array_model.Caps.col dcaps g >= 0.0)

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()

let prop_metrics_invariants =
  QCheck.Test.make
    ~name:"array metrics: positivity, max-delay and EDP identities" ~count:150
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      let m = Array_model.Array_eval.evaluate env_hvt g a in
      let open Array_model.Array_eval in
      m.d_read > 0.0 && m.d_write > 0.0 && m.e_total > 0.0
      && abs_float (m.d_array -. max m.d_read m.d_write) < 1e-18
      && abs_float (m.edp -. (m.e_total *. m.d_array)) < 1e-30
      && m.e_leakage >= 0.0)

let prop_physical_not_cheaper =
  QCheck.Test.make
    ~name:"physical accounting never undercuts strict accounting" ~count:80
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      let phys =
        Array_model.Array_eval.make_env
          ~accounting:Array_model.Array_eval.Physical
          ~cell_flavor:Finfet.Library.Hvt ()
      in
      let ms = Array_model.Array_eval.evaluate env_hvt g a in
      let mp = Array_model.Array_eval.evaluate phys g a in
      mp.Array_model.Array_eval.e_read
      >= ms.Array_model.Array_eval.e_read -. 1e-20)

let prop_deeper_vssc_faster_reads =
  QCheck.Test.make ~name:"deeper negative Gnd never slows the read" ~count:80
    QCheck.(pair geometry_gen (int_bound 23))
    (fun (g, step) ->
      let at vssc =
        (Array_model.Array_eval.evaluate env_hvt g
           { Array_model.Components.vddc = 0.55; vssc; vwl = 0.55 })
          .Array_model.Array_eval.d_read
      in
      at (-0.01 *. float_of_int (step + 1)) <= at (-0.01 *. float_of_int step) +. 1e-18)

let prop_dcdc_bounds =
  QCheck.Test.make ~name:"dcdc efficiency in (0,1], overhead >= 1" ~count:200
    QCheck.(float_range (-0.9) 0.9)
    (fun v_out ->
      let eta = Array_model.Dcdc.efficiency ~v_out () in
      eta > 0.0 && eta <= 1.0 && Array_model.Dcdc.overhead ~v_out () >= 1.0)

(* --- staged evaluation kernel --- *)

let env_lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt ()

let env_hvt_physical =
  Array_model.Array_eval.make_env ~accounting:Array_model.Array_eval.Physical
    ~cell_flavor:Finfet.Library.Hvt ()

let kernel_envs = [ env_hvt; env_lvt; env_hvt_physical ]

(* Field-for-field Float.equal — NOT a tolerance check: the staged kernel
   promises bit identity with the reference path. *)
let metrics_equal (a : Array_model.Array_eval.metrics)
    (b : Array_model.Array_eval.metrics) =
  let open Array_model.Array_eval in
  Float.equal a.d_read b.d_read
  && Float.equal a.d_write b.d_write
  && Float.equal a.d_array b.d_array
  && Float.equal a.e_read b.e_read
  && Float.equal a.e_write b.e_write
  && Float.equal a.e_switching b.e_switching
  && Float.equal a.e_leakage b.e_leakage
  && Float.equal a.e_total b.e_total
  && Float.equal a.edp b.edp
  && Float.equal a.d_bl_read b.d_bl_read
  && Float.equal a.d_row_path_read b.d_row_path_read
  && Float.equal a.d_col_path b.d_col_path

let prop_staged_bit_identical =
  QCheck.Test.make
    ~name:"eval_staged = evaluate bit-for-bit (LVT, HVT, both accountings)"
    ~count:150
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      List.for_all
        (fun env ->
          let reference = Array_model.Array_eval.evaluate env g a in
          let staged =
            Array_model.Array_eval.(complete (stage env g) 0 (prepare env a))
          in
          metrics_equal reference staged)
        kernel_envs)

let prop_bound_admissible =
  QCheck.Test.make
    ~name:"envelope bound lower-bounds every enveloped assist's metrics"
    ~count:80
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 8) assist_gen))
    (fun (g, assists) ->
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let st = stage env g in
          let preps =
            Array.of_list (List.map (fun a -> prepare env a) assists)
          in
          (* Suffix envelope 0 covers the whole scan. *)
          let whole = (suffix_envelopes preps ~block:(Array.length preps)).(0) in
          let b = complete st 0 (bound_prepared env whole) in
          List.for_all
            (fun a ->
              let m = evaluate env g a in
              b.d_read <= m.d_read && b.d_write <= m.d_write
              && b.d_array <= m.d_array && b.e_read <= m.e_read
              && b.e_write <= m.e_write && b.e_total <= m.e_total
              && b.edp <= m.edp)
            assists)
        kernel_envs)

(* Assist corner cases the batched scan's zero-guard branches must get
   bit-for-bit right: dv exactly zero, negative zero, and subnormal
   magnitudes where naive reassociation would flush differently. *)
let corner_assists =
  [ { Array_model.Components.vddc = 0.45; vssc = 0.0; vwl = 0.45 };
    { Array_model.Components.vddc = 0.45; vssc = -0.0; vwl = 0.45 };
    { Array_model.Components.vddc = 0.5; vssc = -4.9e-324; vwl = 0.5 };
    { Array_model.Components.vddc = 0.55; vssc = -1e-310; vwl = 0.55 } ]

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let geometry0 = Array_model.Geometry.create ~nr:64 ~nc:128 ~n_pre:5 ~n_wr:3 ()

let prop_scan_bit_identical =
  (* Stricter than [Float.equal]: raw IEEE bit comparison, so a -0.0
     where the record path produced +0.0 fails the property. *)
  QCheck.Test.make
    ~name:"scan slots = eval_staged bit-for-bit (incl. -0.0/subnormal vssc)"
    ~count:100
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 6) assist_gen))
    (fun (g, random_assists) ->
      let assists = Array.of_list (corner_assists @ random_assists) in
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          (* [g] second in its grid, so its operands sit past offset 0. *)
          let grid = stage_array (ctx_for env) [| geometry0; g |] in
          let preps = Array.map (prepare env) assists in
          let buf = scan_buffer () in
          scan grid 1 preps buf;
          let ok = ref true in
          Array.iteri
            (fun i p ->
              let m = complete grid 1 p in
              ok :=
                !ok
                && bits_equal (scan_e_total buf).(i) m.e_total
                && bits_equal (scan_d_array buf).(i) m.d_array
                && bits_equal (scan_edp buf).(i) m.edp)
            preps;
          !ok)
        kernel_envs)

let prop_attribution_bit_exact =
  (* The explainer's contract: [attribute] deliberately re-derives
     [evaluate]'s arithmetic term by term, and its ordered lists must
     refold — left-associated, head-seeded — to the very same IEEE
     bits, across random geometries, both accounting modes, and the
     -0.0/subnormal V_SSC corner operands the scan kernel guards. *)
  QCheck.Test.make
    ~name:"attribution terms refold to evaluate's totals bit-for-bit"
    ~count:100
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 4) assist_gen))
    (fun (g, random_assists) ->
      let assists = corner_assists @ random_assists in
      List.for_all
        (fun env ->
          List.for_all
            (fun a ->
              let open Array_model.Array_eval in
              let at = attribute env g a in
              let m = evaluate env g a in
              attribution_consistent at
              && bits_equal at.at_metrics.e_read m.e_read
              && bits_equal at.at_metrics.e_write m.e_write
              && bits_equal at.at_metrics.e_total m.e_total
              && bits_equal at.at_metrics.d_read m.d_read
              && bits_equal at.at_metrics.d_write m.d_write
              && bits_equal at.at_metrics.d_array m.d_array
              && bits_equal at.at_metrics.edp m.edp)
            assists)
        kernel_envs)

let prop_suffix_bounds_admissible =
  (* The mid-scan abandonment invariant: scanning the [bound_prepared]
     image of suffix envelope [j] yields slots that lower-bound every
     real point at index >= j*block, for every objective's read fields.
     If this held only approximately the batched search could abandon a
     line containing the true winner. *)
  QCheck.Test.make
    ~name:"suffix-envelope bound slots lower-bound their whole suffix"
    ~count:60
    QCheck.(triple geometry_gen
              (list_of_size (Gen.int_range 1 12) assist_gen) (int_range 1 4))
    (fun (g, random_assists, block) ->
      let assists = Array.of_list (corner_assists @ random_assists) in
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let st = stage env g in
          let preps = Array.map (prepare env) assists in
          let n = Array.length preps in
          let bound_ps =
            Array.map (bound_prepared env) (suffix_envelopes preps ~block)
          in
          let bbuf = scan_buffer () in
          scan st 0 bound_ps bbuf;
          let buf = scan_buffer () in
          scan st 0 preps buf;
          let ok = ref true in
          for j = 0 to Array.length bound_ps - 1 do
            for i = j * block to n - 1 do
              ok :=
                !ok
                && (scan_e_total bbuf).(j) <= (scan_e_total buf).(i)
                && (scan_d_array bbuf).(j) <= (scan_d_array buf).(i)
                && (scan_edp bbuf).(j) <= (scan_edp buf).(i)
            done
          done;
          !ok)
        kernel_envs)

let prop_pruned_search_matches_reference =
  (* Whole searches: the pruned staged scan must select the same design,
     bit for bit, as the never-pruning reference kernel. *)
  QCheck.Test.make
    ~name:"pruned staged search returns the reference kernel's winner"
    ~count:6
    QCheck.(triple (int_range 0 3) bool (int_bound 3))
    (fun (cap_exp, m2, obj_i) ->
      let capacity_bits = 1024 * (1 lsl cap_exp) in
      let method_ = if m2 then Opt.Space.M2 else Opt.Space.M1 in
      let objective =
        [| Opt.Objective.Energy_delay_product;
           Opt.Objective.Energy_delay_squared; Opt.Objective.Energy_only;
           Opt.Objective.Delay_only |].(obj_i)
      in
      let run kernel =
        Opt.Exhaustive.search ~space:Opt.Space.reduced ~objective ~kernel
          ~env:env_hvt ~capacity_bits ~method_ ()
      in
      let staged = run `Staged in
      let reference = run `Reference in
      let sb = staged.Opt.Exhaustive.best
      and rb = reference.Opt.Exhaustive.best in
      sb.Opt.Exhaustive.geometry = rb.Opt.Exhaustive.geometry
      && sb.Opt.Exhaustive.assist = rb.Opt.Exhaustive.assist
      && Float.equal sb.Opt.Exhaustive.score rb.Opt.Exhaustive.score
      && metrics_equal sb.Opt.Exhaustive.metrics rb.Opt.Exhaustive.metrics
      && staged.Opt.Exhaustive.evaluated + staged.Opt.Exhaustive.pruned
         > 0
      && reference.Opt.Exhaustive.pruned = 0)

(* --- staging contract --- *)

let metrics_bits_equal (a : Array_model.Array_eval.metrics)
    (b : Array_model.Array_eval.metrics) =
  let open Array_model.Array_eval in
  List.for_all2 bits_equal
    [ a.d_read; a.d_write; a.d_array; a.e_read; a.e_write; a.e_switching;
      a.e_leakage; a.e_total; a.edp; a.d_bl_read; a.d_row_path_read;
      a.d_col_path ]
    [ b.d_read; b.d_write; b.d_array; b.e_read; b.e_write; b.e_switching;
      b.e_leakage; b.e_total; b.edp; b.d_bl_read; b.d_row_path_read;
      b.d_col_path ]

(* A candidate grid of random axes, capacity and access width (so rows
   come both narrower and wider than w), in enumeration order or
   shuffled out of it. *)
let grid_gen =
  let open QCheck.Gen in
  let axis g = list_size (int_range 1 4) g >|= List.sort_uniq compare >|= Array.of_list in
  let* nr_values = axis (map (fun e -> 1 lsl e) (int_range 1 10)) in
  let* n_pre_values = axis (int_range 1 50) in
  let* n_wr_values = axis (int_range 1 20) in
  let* capacity_bits = map (fun e -> 1 lsl e) (int_range 8 14) in
  let* w = map (fun e -> 1 lsl e) (int_range 0 8) in
  let gs =
    Opt.Space.candidate_geometries ~w
      { Opt.Space.default with Opt.Space.nr_values; n_pre_values; n_wr_values }
      ~capacity_bits
  in
  map Array.of_list (oneof [ return gs; shuffle_l gs ])

let prop_stage_array_bit_identical =
  QCheck.Test.make
    ~name:"stage_array element = stage = evaluate bit-for-bit (random grids)"
    ~count:60
    QCheck.(
      pair
        (make ~print:(fun gs -> string_of_int (Array.length gs) ^ " geometries") grid_gen)
        (list_of_size (Gen.int_range 1 3) assist_gen))
    (fun (gs, assists) ->
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let grid = stage_array (make_ctx env) gs in
          let points = List.map (fun a -> (a, prepare env a)) assists in
          let outside i =
            match complete grid i (snd (List.hd points)) with
            | _ -> false
            | exception Invalid_argument _ -> true
          in
          outside (-1) && outside (Array.length gs)
          && List.for_all
               (fun i ->
                 let g = gs.(i) in
                 List.for_all
                   (fun (a, p) ->
                     let m = complete grid i p in
                     metrics_bits_equal m (complete (stage env g) 0 p)
                     && metrics_bits_equal m (evaluate env g a))
                   points)
               (List.init (Array.length gs) Fun.id))
        kernel_envs)

let staged_count () =
  Runtime.Telemetry.value (Runtime.Telemetry.counter "array_eval.stage")

(* Records staged while [f] runs. *)
let stagings f =
  let c0 = staged_count () in
  f ();
  staged_count () - c0

(* What a search stages depends on its organization grid alone: a
   second search over the same n_r, N_pre and N_wr axes, capacity and w
   — here with another V_SSC grid, then the other method — gets the
   same memoized grid and finds it staged.  [reset_staging] drops it. *)
let test_grid_staged_once () =
  let capacity_bits = 1024 * 8 and space = Opt.Space.reduced in
  let levels = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
  let search ?(space = space) method_ () =
    ignore
      (Opt.Exhaustive.search ~space ~levels ~env:env_hvt ~capacity_bits ~method_ ())
  in
  let n = List.length (Opt.Space.candidate_geometries space ~capacity_bits) in
  Array_model.Array_eval.reset_staging ();
  Alcotest.(check int) "the first search stages the grid" n
    (stagings (search Opt.Space.M2));
  Alcotest.(check int) "another V_SSC grid stages nothing" 0
    (stagings
       (search
          ~space:{ space with Opt.Space.vssc_values = [| 0.0; -0.05; -0.1 |] }
          Opt.Space.M2));
  Alcotest.(check int) "the other method stages nothing" 0
    (stagings (search Opt.Space.M1));
  Array_model.Array_eval.reset_staging ();
  Alcotest.(check int) "after reset_staging the grid stages again" n
    (stagings (search Opt.Space.M2))

(* Not a property but the strongest single determinism check we have:
   the full paper sweep (all capacities x configs, staged kernel) must
   reproduce one specific winner checksum — the value committed in
   BENCH_kernel.json — at every job count.  Any reassociation slip in
   the scan kernel, any order dependence in the parallel reduction, and
   any pruning bound that is not strictly admissible shows up here as a
   changed digest. *)
let full_sweep_checksum = "67fd83cd67998ac0"

let test_full_sweep_deterministic () =
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
  let sweep jobs =
    let pool = Runtime.Pool.create ~jobs () in
    let results =
      List.concat_map
        (fun capacity_bits ->
          List.map
            (fun (c : Sram_edp.Framework.config) ->
              Opt.Exhaustive.search ~kernel:`Staged ~pool
                ~levels:(levels_of c.Sram_edp.Framework.flavor)
                ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
                ~method_:c.Sram_edp.Framework.method_ ())
            Sram_edp.Framework.all_configs)
        Sram_edp.Framework.paper_capacities
    in
    Runtime.Pool.shutdown pool;
    Opt.Exhaustive.checksum results
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "full-sweep checksum at %d jobs" jobs)
        full_sweep_checksum (sweep jobs))
    [ 1; 2; 4 ]

(* The scan path's allocation contract, measured directly: once a
   warm-up pass has grown the buffer, repeated scans must allocate
   nothing — the inner loop writes into preallocated float arrays and
   materializes no records.  1000 scans of 26 points (250 passes over
   a four-geometry grid) amplify even one boxed float per point into
   megawords, while the measurement's own boxing noise stays under a
   few dozen words. *)
let test_scan_allocation_free () =
  let open Array_model.Array_eval in
  let env = make_env ~cell_flavor:Finfet.Library.Hvt () in
  let gs =
    Array.init 4 (fun i ->
        Array_model.Geometry.create ~nr:256 ~nc:64 ~n_pre:(4 + i) ~n_wr:4 ())
  in
  let grid = stage_array (make_ctx env) gs in
  let preps =
    Array.init 26 (fun i ->
        prepare env
          { Array_model.Components.vddc = 0.45;
            vssc = -0.01 *. float_of_int i;
            vwl = 0.45 })
  in
  let buf = scan_buffer () in
  scan grid 0 preps buf;
  let reps = 250 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    for i = 0 to Array.length gs - 1 do
      scan grid i preps buf
    done
  done;
  let delta = Gc.minor_words () -. w0 in
  let per_point =
    delta /. float_of_int (reps * Array.length gs * Array.length preps)
  in
  if per_point > 0.01 then
    Alcotest.failf "scan allocated %.4f minor words per point (want 0)"
      per_point

(* --- search-space restriction --- *)

(* The HVT EDP winner over the whole default space, per capacity and
   method. *)
let full_winner =
  let memo = Hashtbl.create 8 in
  fun ~capacity_bits ~method_ ->
    match Hashtbl.find_opt memo (capacity_bits, method_) with
    | Some best -> best
    | None ->
      let best =
        (Opt.Exhaustive.search ~env:env_hvt ~capacity_bits ~method_ ())
          .Opt.Exhaustive.best
      in
      Hashtbl.add memo (capacity_bits, method_) best;
      best

(* A sub-axis as a mask over a default axis, plus one index it always
   keeps, so it is never empty. *)
let mask_gen n =
  QCheck.Gen.(pair (array_size (return n) bool) (int_bound (n - 1)))

(* The default axis's values the mask keeps, in the default's order,
   plus any value [also] accepts. *)
let sub_axis values (mask, forced) ~also =
  let kept = ref [] in
  Array.iteri
    (fun i v -> if mask.(i) || i = forced || also v then kept := v :: !kept)
    values;
  Array.of_list (List.rev !kept)

let prop_restriction_never_improves =
  let d = Opt.Space.default in
  let gen =
    QCheck.Gen.(
      tup4
        (pair (int_range 0 3) bool)
        (pair (mask_gen (Array.length d.Opt.Space.nr_values))
           (mask_gen (Array.length d.Opt.Space.vssc_values)))
        (pair (mask_gen (Array.length d.Opt.Space.n_pre_values))
           (mask_gen (Array.length d.Opt.Space.n_wr_values)))
        bool)
  in
  QCheck.Test.make
    ~name:"restricting the search space never improves the winner" ~count:40
    (QCheck.make gen)
    (fun ((cap_exp, m2), (nr_m, vssc_m), (n_pre_m, n_wr_m), with_winner) ->
      (* 128B to 1KB *)
      let capacity_bits = 1024 * (1 lsl cap_exp) in
      let method_ = if m2 then Opt.Space.M2 else Opt.Space.M1 in
      let full = full_winner ~capacity_bits ~method_ in
      let g = full.Opt.Exhaustive.geometry in
      let vssc = full.Opt.Exhaustive.assist.Array_model.Components.vssc in
      (* Half the cases keep the full winner's coordinates. *)
      let keep x v = with_winner && v = x in
      let space =
        { Opt.Space.nr_values =
            sub_axis d.Opt.Space.nr_values nr_m ~also:(keep g.Array_model.Geometry.nr);
          n_pre_values =
            sub_axis d.Opt.Space.n_pre_values n_pre_m
              ~also:(keep g.Array_model.Geometry.n_pre);
          n_wr_values =
            sub_axis d.Opt.Space.n_wr_values n_wr_m
              ~also:(keep g.Array_model.Geometry.n_wr);
          vssc_values =
            sub_axis d.Opt.Space.vssc_values vssc_m
              ~also:(fun v -> with_winner && bits_equal v vssc) }
      in
      let sub =
        (Opt.Exhaustive.search ~space ~env:env_hvt ~capacity_bits ~method_ ())
          .Opt.Exhaustive.best
      in
      let inside =
        Array.mem g.Array_model.Geometry.nr space.Opt.Space.nr_values
        && Array.mem g.Array_model.Geometry.n_pre space.Opt.Space.n_pre_values
        && Array.mem g.Array_model.Geometry.n_wr space.Opt.Space.n_wr_values
        && ((not m2) || Array.exists (bits_equal vssc) space.Opt.Space.vssc_values)
      in
      sub.Opt.Exhaustive.score >= full.Opt.Exhaustive.score
      && ((not inside)
         || sub.Opt.Exhaustive.geometry = g
            && bits_equal sub.Opt.Exhaustive.assist.Array_model.Components.vssc vssc
            && sub.Opt.Exhaustive.assist = full.Opt.Exhaustive.assist
            && bits_equal sub.Opt.Exhaustive.score full.Opt.Exhaustive.score
            && metrics_bits_equal sub.Opt.Exhaustive.metrics
                 full.Opt.Exhaustive.metrics))

(* A staged grid is one flat float block, which a grid this size gets
   straight from the major heap: staging a fresh 10,000-geometry grid
   promotes almost nothing.  A record per geometry promoted ~26 words
   each. *)
let test_stage_array_promotes_little () =
  let open Array_model.Array_eval in
  let gs =
    Array.of_list
      (Opt.Space.candidate_geometries Opt.Space.default
         ~capacity_bits:(16384 * 8))
  in
  let n = Array.length gs in
  Alcotest.(check int) "the default 16KB grid" 10_000 n;
  (* A first staging characterizes the decoders the grid reads. *)
  ignore (stage_array (make_ctx env_hvt) gs);
  let ctx = make_ctx env_hvt in
  let s0 = Gc.quick_stat () in
  let grid = stage_array ctx gs in
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity grid);
  let per_geometry =
    (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. float_of_int n
  in
  if per_geometry >= 4.0 then
    Alcotest.failf "staging promoted %.2f words per geometry (want < 4)"
      per_geometry

(* --- workload --- *)

let prop_trace_summary_bounds =
  QCheck.Test.make ~name:"trace alpha and beta are probabilities" ~count:100
    QCheck.(triple (int_bound 10_000) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (seed, activity, read_fraction) ->
      let p = Workload.Trace.Uniform { activity; read_fraction } in
      let s = Workload.Trace.characterize (Workload.Trace.generate ~seed p ~length:500) in
      s.Workload.Trace.alpha >= 0.0 && s.Workload.Trace.alpha <= 1.0
      && s.Workload.Trace.beta >= 0.0 && s.Workload.Trace.beta <= 1.0)

(* --- deck round trip on random RC ladders --- *)

let prop_deck_roundtrip =
  QCheck.Test.make ~name:"deck print/parse preserves random ladder solutions"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, stages) ->
      let rng = Numerics.Rng.create ~seed in
      let n = Spice.Netlist.create () in
      let top = Spice.Netlist.fresh_node n "top" in
      Spice.Netlist.vdc n ~plus:top ~minus:0 ~volts:1.0;
      let rec build prev k =
        if k = 0 then prev
        else begin
          let next = Spice.Netlist.fresh_node n (Printf.sprintf "n%d" k) in
          Spice.Netlist.resistor n ~plus:prev ~minus:next
            ~ohms:(100.0 +. ((1e5 -. 100.0) *. Numerics.Rng.uniform rng));
          build next (k - 1)
        end
      in
      let last = build top stages in
      Spice.Netlist.resistor n ~plus:last ~minus:0
        ~ohms:(100.0 +. ((1e5 -. 100.0) *. Numerics.Rng.uniform rng));
      let original =
        Spice.Dc.node_voltage (Spice.Dc.operating_point n) last
      in
      match Spice.Deck.parse ~lib (Testutil.Deck_print.print n) with
      | Error _ -> false
      | Ok (n2, names) ->
        (match Spice.Deck.node names (Spice.Netlist.node_name n last) with
         | None -> false
         | Some node ->
           abs_float
             (Spice.Dc.node_voltage (Spice.Dc.operating_point n2) node
              -. original)
           < 1e-6))

(* --- macro: model-based testing against a reference map --- *)

let prop_macro_matches_reference =
  let op_gen =
    QCheck.(list_of_size (Gen.int_range 1 60)
              (pair (int_bound 127) (option (int_bound 0xFFFF))))
  in
  QCheck.Test.make
    ~name:"macro contents always match a reference associative model" ~count:40
    op_gen
    (fun ops ->
      let macro =
        Sram_macro.Macro.create_optimized ~capacity_bits:(1024 * 8) ~flavor:Finfet.Library.Hvt
          ~method_:Opt.Space.M1 ()
      in
      let words = Sram_macro.Macro.words macro in
      let reference = Hashtbl.create 32 in
      List.for_all
        (fun (addr_raw, op) ->
          let addr = addr_raw mod words in
          match op with
          | Some data ->
            let data = Int64.of_int data in
            let r = Sram_macro.Macro.write macro ~addr ~data in
            Hashtbl.replace reference addr r.Sram_macro.Macro.data;
            true
          | None ->
            let got = (Sram_macro.Macro.read macro ~addr).Sram_macro.Macro.data in
            (match Hashtbl.find_opt reference addr with
             | Some expected -> got = expected
             | None -> true (* power-up garbage: any value is legal *)))
        ops)

let to_alco = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "properties"
    [ ("numerics",
       List.map to_alco
         [ prop_percentile_bounds; prop_brent_cubic; prop_table1d_clamp_bounds;
           prop_power_law_roundtrip ]);
      ("spice", List.map to_alco [ prop_divider; prop_step_waveform_bounds ]);
      ("device", List.map to_alco [ prop_ids_monotone_vgs; prop_stack_bounded_by_pull_down ]);
      ("array_model",
       List.map to_alco
         [ prop_caps_positive; prop_metrics_invariants; prop_physical_not_cheaper;
           prop_deeper_vssc_faster_reads; prop_dcdc_bounds ]);
      ("staged_kernel",
       List.map to_alco
         [ prop_staged_bit_identical; prop_bound_admissible;
           prop_scan_bit_identical; prop_attribution_bit_exact;
           prop_suffix_bounds_admissible;
           prop_pruned_search_matches_reference;
           prop_stage_array_bit_identical; prop_restriction_never_improves ]
       @ [ Alcotest.test_case "full sweep reproduces committed checksum"
             `Slow test_full_sweep_deterministic;
           Alcotest.test_case "warm scan path allocates zero words"
             `Quick test_scan_allocation_free;
           Alcotest.test_case "a search stages its organization grid once"
             `Quick test_grid_staged_once;
           Alcotest.test_case "staging a grid promotes < 4 words per geometry"
             `Quick test_stage_array_promotes_little ]);
      ("workload", List.map to_alco [ prop_trace_summary_bounds ]);
      ("deck", List.map to_alco [ prop_deck_roundtrip ]);
      ("macro", List.map to_alco [ prop_macro_matches_reference ]) ]
