(* Golden-file content generation, shared by the regression tests
   (test_golden.ml, which diffs against the files under test/golden)
   and the regenerator (regen_golden.ml, `make regen-golden`).  Everything here
   must be bit-stable run to run: the searches are deterministic at any
   job count and Persist.Json prints floats with enough digits to
   round-trip, so a golden diff means the model output changed, not
   that the harness wobbled. *)

open Sram_edp
module J = Persist.Json

(* Reduced space keeps regeneration and `dune runtest` fast while still
   exercising the staged kernel, yield pinning and both methods; the
   full-space Table 4 lives in the bench harness, not the goldens. *)
let capacities = [ 128 * 8; 1024 * 8; 4 * 1024 * 8 ]

let designs =
  lazy
    (List.concat_map
       (fun capacity_bits ->
         List.map
           (fun config ->
             Framework.optimize ~space:Opt.Space.reduced ~capacity_bits ~config ())
           Framework.all_configs)
       capacities)

let rows =
  lazy
    (List.map
       (fun (o : Framework.optimized) ->
         let g = Framework.geometry o in
         let a = Framework.assist o in
         let m = Framework.metrics o in
         { Experiments.capacity_bits = o.Framework.capacity_bits;
           config = o.Framework.config;
           nr = g.Array_model.Geometry.nr;
           nc = g.Array_model.Geometry.nc;
           n_pre = g.Array_model.Geometry.n_pre;
           n_wr = g.Array_model.Geometry.n_wr;
           vddc = a.Array_model.Components.vddc;
           vssc = a.Array_model.Components.vssc;
           vwl = a.Array_model.Components.vwl;
           d_array = m.Array_model.Array_eval.d_array;
           e_total = m.Array_model.Array_eval.e_total;
           edp = m.Array_model.Array_eval.edp;
           d_bl_read = m.Array_model.Array_eval.d_bl_read })
       (Lazy.force designs))

let table4_json () =
  J.to_string_pretty
    (J.List (List.map Json_out.of_design_row (Lazy.force rows)))
  ^ "\n"

let report_text () =
  let table =
    Report.create
      ~columns:
        [ "M"; "SRAM"; "n_r"; "n_c"; "N_pre"; "N_wr"; "V_DDC"; "V_SSC"; "V_WL" ]
  in
  let last_capacity = ref 0 in
  List.iter
    (fun (r : Experiments.design_row) ->
      if !last_capacity <> 0 && r.Experiments.capacity_bits <> !last_capacity
      then Report.add_separator table;
      last_capacity := r.Experiments.capacity_bits;
      Report.add_row table
        [ Units.capacity r.Experiments.capacity_bits;
          Framework.config_name r.Experiments.config;
          string_of_int r.Experiments.nr;
          string_of_int r.Experiments.nc;
          string_of_int r.Experiments.n_pre;
          string_of_int r.Experiments.n_wr;
          Units.mv r.Experiments.vddc;
          Units.mv r.Experiments.vssc;
          Units.mv r.Experiments.vwl ])
    (Lazy.force rows);
  Report.to_string table

let datasheet_text () =
  let pick =
    List.find
      (fun (o : Framework.optimized) ->
        o.Framework.capacity_bits = 1024 * 8
        && o.Framework.config.Framework.flavor = Finfet.Library.Hvt
        && o.Framework.config.Framework.method_ = Opt.Space.M2)
      (Lazy.force designs)
  in
  Datasheet.to_string (Datasheet.build pick)

(* ----- stats endpoint schema ----- *)

(* The `stats` payload carries timings, so its VALUES are not golden —
   its SHAPE is.  Every scalar is collapsed to its type name and every
   list to its first element, giving a schema tree that is bit-stable
   while pinning the key set and nesting documented in DESIGN.md §7:
   a golden diff here means a client-visible schema change. *)
let rec schema_of = function
  | J.Null -> J.String "null"
  | J.Bool _ -> J.String "bool"
  | J.Int _ -> J.String "int"
  | J.Float _ -> J.String "float"
  | J.String _ -> J.String "string"
  | J.List [] -> J.List []
  | J.List (x :: _) -> J.List [ schema_of x ]
  | J.Obj fields ->
    J.Obj (List.map (fun (k, v) -> (k, schema_of v)) fields)

(* Synthesize the full serving state a live daemon would have —
   windowed request histograms, SLO counters, serve.* telemetry — so
   the schema covers every optional section ("windows", "server"), then
   reset so the synthetic state cannot leak into other goldens. *)
let stats_schema () =
  ignore (Lazy.force designs);  (* memo caches registered and warm *)
  Runtime.Telemetry.reset ();
  Obs.Histogram.reset_all ();
  Obs.Window.reset_all ();
  let slo =
    [ "serve.requests"; "serve.responses"; "serve.errors";
      "serve.deadline_expired"; "serve.rejected_busy"; "serve.bad_request";
      "serve.bad_frame" ]
  in
  List.iteri
    (fun i name -> Runtime.Telemetry.add (Runtime.Telemetry.counter name) i)
    slo;
  List.iter
    (fun name ->
      let counter = Runtime.Telemetry.counter name in
      Obs.Window.track name (fun () -> Runtime.Telemetry.value counter))
    slo;
  List.iter
    (fun name ->
      let h = Obs.Histogram.create name in
      List.iter (Obs.Histogram.observe h) [ 1e-5; 2e-4; 3e-3 ];
      ignore (Obs.Window.create h))
    [ "serve.queue_wait"; "serve.handle.optimize"; "serve.e2e" ];
  Obs.Window.rotate_all ();
  let text =
    J.to_string_pretty (schema_of (Json_out.runtime_stats_json ()))
    ^ "\n"
  in
  Runtime.Telemetry.reset ();
  Obs.Histogram.reset_all ();
  Obs.Window.reset_all ();
  text

(* ----- strategy result schema ----- *)

(* Routing every engine through {!Opt.Strategy.run} must not change the
   result JSON a client sees (the serve payloads and the checkpoint
   journal both embed it).  Values legitimately differ per engine — the
   heuristics evaluate a subset — so the golden pins the SHAPE of
   [Opt.Exhaustive.result_to_json] for each strategy, same collapse as
   the stats schema. *)
let strategies_schema () =
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let result_of st =
    Opt.Strategy.run st ~space:Opt.Space.reduced ~env
      ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
  in
  J.to_string_pretty
    (J.Obj
       (List.map
          (fun st ->
            ( Opt.Strategy.name st,
              schema_of (Opt.Exhaustive.result_to_json (result_of st))
            ))
          [ Opt.Strategy.Exhaustive; Opt.Strategy.Local_search;
            Opt.Strategy.Anneal; Opt.Strategy.Nsga2; Opt.Strategy.Surrogate ]))
  ^ "\n"

(* ----- physics pins ----- *)

(* The SPICE-derived answers beneath every design, recorded as IEEE-754
   bit patterns so that a kernel rewrite which changes any of them by
   one ulp shows up as a golden diff: the yield pins over the flavor x
   corner x temperature box (conditions whose RSNM never reaches delta
   are recorded as infeasible), the write-delay LUT at its grid levels
   and at interpolated and clamped levels, and RSNM over a V_DDC x V_SSC
   grid. *)
let bits v = J.String (Printf.sprintf "%016Lx" (Int64.bits_of_float v))

let flavors = [ Finfet.Library.Hvt; Finfet.Library.Lvt ]
let temperatures = [ -40.0; 25.0; 85.0; 125.0 ]
let physics_vwl = [ 0.30; 0.42; 0.45; 0.46; 0.50; 0.54; 0.55; 0.58; 0.60; 0.64; 0.72; 0.90 ]
let physics_vddc = [ 0.45; 0.50; 0.55; 0.60; 0.70 ]
let physics_vssc = [ 0.0; -0.08; -0.16; -0.24 ]

let physics_json () =
  let flavor f = ("flavor", J.String (Finfet.Library.flavor_to_string f)) in
  let pins =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun corner ->
            List.map
              (fun celsius ->
                let where =
                  [ flavor f;
                    ("corner", J.String (Finfet.Corners.name corner));
                    ("celsius", J.Float celsius) ]
                in
                match Opt.Yield.solve ~corner ~celsius ~flavor:f () with
                | l ->
                  J.Obj
                    (where
                    @ [ ("vddc_min", bits l.Opt.Yield.vddc_min);
                        ("vwl_min", bits l.Opt.Yield.vwl_min);
                        ("hsnm_nominal", bits l.Opt.Yield.hsnm_nominal) ])
                | exception Opt.Yield.Infeasible _ ->
                  J.Obj (where @ [ ("infeasible", J.Bool true) ]))
              temperatures)
          Finfet.Corners.all)
      flavors
  in
  let write_delay =
    List.concat_map
      (fun f ->
        let per = Array_model.Periphery.shared ~cell_flavor:f in
        List.map
          (fun vwl ->
            J.Obj
              [ flavor f; ("vwl", J.Float vwl);
                ("delay", bits (Array_model.Periphery.write_delay per ~vwl)) ])
          physics_vwl)
      flavors
  in
  let rsnm =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun vddc ->
            List.map
              (fun vssc ->
                J.Obj
                  [ flavor f; ("vddc", J.Float vddc); ("vssc", J.Float vssc);
                    ("rsnm", bits (Opt.Yield.rsnm_at ~flavor:f ~vddc ~vssc ())) ])
              physics_vssc)
          physics_vddc)
      flavors
  in
  J.to_string_pretty
    (J.Obj
       [ ("yield", J.List pins);
         ("write_delay", J.List write_delay);
         ("rsnm", J.List rsnm) ])
  ^ "\n"

let files_memo =
  (* Sequenced lets: [stats_schema] mutates (then resets) global
     telemetry state, so it must not interleave with the sweep-backed
     generators.  The whole list is memoized because generation is not
     idempotent either — [strategies_schema] registers the heuristic
     engines' telemetry counters, which would leak into a *second*
     [stats_schema] run's counter listing. *)
  lazy
    (let table4 = table4_json () in
     let report = report_text () in
     let datasheet = datasheet_text () in
     let stats = stats_schema () in
     let strategies = strategies_schema () in
     let physics = physics_json () in
     [ ("table4.json", table4);
       ("report.txt", report);
       ("datasheet.txt", datasheet);
       ("stats.json", stats);
       ("strategies.json", strategies);
       ("physics.json", physics) ])

let files () = Lazy.force files_memo
