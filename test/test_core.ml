(* Tests of the public facade: units and report rendering, the framework
   entry point, and the experiment drivers (shapes and paper anchors of
   the figures the bench harness regenerates). *)

open Testutil

let units_tests =
  [ case "picoseconds" (fun () ->
        Alcotest.(check string) "ps" "134.2 ps" (Sram_edp.Units.ps 134.2e-12));
    case "femtojoules" (fun () ->
        Alcotest.(check string) "fj" "8.86 fJ" (Sram_edp.Units.fj 8.86e-15));
    case "nanowatts" (fun () ->
        Alcotest.(check string) "nw" "1.692 nW" (Sram_edp.Units.nw 1.692e-9));
    case "millivolts" (fun () ->
        Alcotest.(check string) "mv" "-240 mV" (Sram_edp.Units.mv (-0.240)));
    case "microamps" (fun () ->
        Alcotest.(check string) "ua" "12.88 uA" (Sram_edp.Units.ua 12.88e-6));
    case "si prefixes" (fun () ->
        Alcotest.(check string) "n" "5n" (Sram_edp.Units.si 5e-9);
        Alcotest.(check string) "k" "2k" (Sram_edp.Units.si 2e3);
        Alcotest.(check string) "zero" "0" (Sram_edp.Units.si 0.0));
    case "capacities" (fun () ->
        Alcotest.(check string) "128B" "128B" (Sram_edp.Units.capacity (128 * 8));
        Alcotest.(check string) "16KB" "16KB" (Sram_edp.Units.capacity (16384 * 8)));
    case "percent" (fun () ->
        Alcotest.(check string) "pct" "-59.0%" (Sram_edp.Units.percent (-0.59))) ]

let report_tests =
  [ case "renders aligned columns" (fun () ->
        let t = Sram_edp.Report.create ~columns:[ "a"; "bb" ] in
        Sram_edp.Report.add_row t [ "xxx"; "y" ];
        let s = capture_stdout (fun () -> Sram_edp.Report.print t) in
        Alcotest.(check bool) "has header" true
          (String.length s > 0
           && String.sub s 0 3 = "a  ");
        Alcotest.(check bool) "mentions row" true
          (String.length s > 0
           && (let rec contains i =
                 i + 3 <= String.length s
                 && (String.sub s i 3 = "xxx" || contains (i + 1))
               in
               contains 0)));
    case "rejects mismatched rows" (fun () ->
        let t = Sram_edp.Report.create ~columns:[ "a"; "b" ] in
        Alcotest.(check bool) "raises" true
          (try Sram_edp.Report.add_row t [ "only one" ]; false
           with Invalid_argument _ -> true));
    case "separators render as rules" (fun () ->
        let t = Sram_edp.Report.create ~columns:[ "ab" ] in
        Sram_edp.Report.add_row t [ "v1" ];
        Sram_edp.Report.add_separator t;
        Sram_edp.Report.add_row t [ "v2" ];
        let lines = String.split_on_char '\n' (capture_stdout (fun () -> Sram_edp.Report.print t)) in
        Alcotest.(check int) "line count" 6 (List.length lines)) ]

let plot_tests =
  let series points = { Sram_edp.Ascii_plot.label = "s"; marker = '#'; points } in
  let render ?log_y s = capture_stdout (fun () -> Sram_edp.Ascii_plot.print ?log_y s) in
  [ case "canvas has the requested dimensions" (fun () ->
        let s = render [ series [ (0.0, 0.0); (1.0, 1.0) ] ] in
        let lines = String.split_on_char '\n' s in
        (* 16 canvas rows + axis + tick row + legend + trailing newline *)
        Alcotest.(check bool) ">= 19 lines" true (List.length lines >= 19);
        let first = List.hd lines in
        Alcotest.(check int) "row width" (9 + 2 + 64) (String.length first));
    case "markers appear on the canvas" (fun () ->
        let s = render [ series [ (0.0, 0.0); (1.0, 1.0) ] ] in
        Alcotest.(check bool) "has marker" true (String.contains s '#'));
    case "corner points land in the corners" (fun () ->
        let s = render [ series [ (0.0, 0.0); (1.0, 1.0) ] ] in
        let lines = Array.of_list (String.split_on_char '\n' s) in
        (* Top row ends with the max point's marker; bottom canvas row
           starts (after the axis margin) with the min point's. *)
        Alcotest.(check char) "top right" '#' lines.(0).[9 + 2 + 63];
        Alcotest.(check char) "bottom left" '#' lines.(15).[9 + 2]);
    case "log_y rejects non-positive values" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (render ~log_y:true [ series [ (0.0, 0.0) ] ]);
             false
           with Invalid_argument _ -> true));
    case "empty input rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (render []); false
           with Invalid_argument _ -> true));
    case "legend lists every series" (fun () ->
        let s =
          render
            [ { Sram_edp.Ascii_plot.label = "alpha"; marker = 'a';
                points = [ (0.0, 1.0) ] };
              { Sram_edp.Ascii_plot.label = "beta"; marker = 'b';
                points = [ (1.0, 2.0) ] } ]
        in
        let contains needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "alpha" true (contains "a alpha" s);
        Alcotest.(check bool) "beta" true (contains "b beta" s)) ]

let json_tests =
  let open Persist.Json in
  [ case "scalars render" (fun () ->
        Alcotest.(check string) "null" "null" (to_string Null);
        Alcotest.(check string) "true" "true" (to_string (Bool true));
        Alcotest.(check string) "int" "42" (to_string (Int 42));
        Alcotest.(check string) "float" "1.5" (to_string (Float 1.5)));
    case "strings escape control characters" (fun () ->
        Alcotest.(check string) "escape" "\"a\\n\\\"b\\\\\""
          (to_string (String "a\n\"b\\")));
    case "containers render compactly" (fun () ->
        Alcotest.(check string) "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
        Alcotest.(check string) "obj" "{\"a\":1}" (to_string (Obj [ ("a", Int 1) ])));
    case "pretty rendering is indented and reparses structure" (fun () ->
        let s = to_string_pretty (Obj [ ("xs", List [ Int 1; Int 2 ]) ]) in
        Alcotest.(check bool) "multiline" true (String.contains s '\n'));
    case "metrics serialize with all fields" (fun () ->
        let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
        let g = Array_model.Geometry.create ~nr:64 ~nc:64 ~n_pre:4 ~n_wr:2 () in
        let vdd = Finfet.Tech.vdd_nominal in
        let m =
          Array_model.Array_eval.evaluate env g
            { Array_model.Components.vddc = vdd; vssc = 0.0; vwl = vdd }
        in
        match Sram_edp.Json_out.of_metrics m with
        | Obj fields -> Alcotest.(check int) "fields" 10 (List.length fields)
        | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
          Alcotest.fail "expected an object");
    case "headline serializes per-capacity rows" (fun () ->
        match Sram_edp.Json_out.of_headline (Sram_edp.Framework.headline ()) with
        | Obj fields ->
          (match List.assoc "per_capacity" fields with
           | List rows -> Alcotest.(check int) "rows" 3 (List.length rows)
           | _ -> Alcotest.fail "expected a list")
        | _ -> Alcotest.fail "expected an object") ]

(* One file through the export command's writer, read back. *)
let render header rows =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "sram_edp_export_render" in
  match Sram_edp.Export.write_all ~dir [ { Sram_edp.Export.filename = "t.csv"; header; rows } ] with
  | [ path ] ->
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    text
  | _ -> Alcotest.fail "expected one file"

let export_tests =
  [ case "csv fields quote when needed" (fun () ->
        Alcotest.(check string) "fields" "abc,\"a,b\",\"a\"\"b\"\n"
          (render [ "abc"; "a,b"; "a\"b" ] []));
    case "csv lines join and terminate" (fun () ->
        Alcotest.(check string) "lines" "a,b,c\nd,e,f\n"
          (render [ "a"; "b"; "c" ] [ [ "d"; "e"; "f" ] ]));
    case "rendered files have consistent column counts" (fun () ->
        List.iter
          (fun (f : Sram_edp.Export.file) ->
            let width = List.length f.Sram_edp.Export.header in
            Alcotest.(check bool) "nonempty" true (f.Sram_edp.Export.rows <> []);
            List.iter
              (fun row -> Alcotest.(check int) f.Sram_edp.Export.filename width (List.length row))
              f.Sram_edp.Export.rows)
          (Sram_edp.Export.all_files ()));
    case "the design table exports all twenty rows" (fun () ->
        let f =
          List.find
            (fun (f : Sram_edp.Export.file) -> f.Sram_edp.Export.filename = "table4_fig7_designs.csv")
            (Sram_edp.Export.all_files ())
        in
        Alcotest.(check int) "rows" 20 (List.length f.Sram_edp.Export.rows));
    case "write_all produces readable files" (fun () ->
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "sram_edp_export_test" in
        let paths = Sram_edp.Export.write_all ~dir (Sram_edp.Export.all_files ()) in
        Alcotest.(check int) "eight files" 8 (List.length paths);
        List.iter
          (fun path ->
            let ic = open_in path in
            let first = input_line ic in
            close_in ic;
            Alcotest.(check bool) "has header" true (String.contains first ','))
          paths) ]

let hvt_m2 = { Sram_edp.Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 }
let lvt_m2 = { Sram_edp.Framework.flavor = Finfet.Library.Lvt; method_ = Opt.Space.M2 }
let cap_1kb = 1024 * 8

(* What a fresh process answers for HVT-M2: a search on a fresh
   environment, past every memo and staging cache. *)
let fresh_checksum ~space ~capacity_bits =
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  Opt.Exhaustive.checksum
    [ Opt.Exhaustive.search ~space ~env ~capacity_bits ~method_:Opt.Space.M2 () ]

let framework_tests =
  [ case "a budget below one scan point is refused" (fun () ->
        (* It would otherwise share the default budget's memo and disk key. *)
        List.iter
          (fun budget ->
            Alcotest.(check bool) (Printf.sprintf "budget %d" budget) true
              (match
                 Sram_edp.Framework.optimize ~strategy:Opt.Strategy.Nsga2 ~budget
                   ~space:Opt.Space.reduced ~capacity_bits:cap_1kb ~config:hvt_m2 ()
               with
               | _ -> false
               | exception Invalid_argument _ -> true))
          [ 0; -1 ]);
    case "config names" (fun () ->
        Alcotest.(check string) "name" "6T-HVT-M2" (Sram_edp.Framework.config_name hvt_m2);
        Alcotest.(check int) "four configs" 4
          (List.length Sram_edp.Framework.all_configs));
    case "paper capacities" (fun () ->
        Alcotest.(check (list int)) "bits"
          [ 128 * 8; 256 * 8; 1024 * 8; 4096 * 8; 16384 * 8 ]
          Sram_edp.Framework.paper_capacities);
    case "optimize is memoized" (fun () ->
        let a = Sram_edp.Framework.optimize ~capacity_bits:cap_1kb ~config:hvt_m2 () in
        let b = Sram_edp.Framework.optimize ~capacity_bits:cap_1kb ~config:hvt_m2 () in
        Alcotest.(check bool) "same result value" true (a == b));
    case "optimized design satisfies the margin constraint" (fun () ->
        let o = Sram_edp.Framework.optimize ~capacity_bits:cap_1kb ~config:hvt_m2 () in
        let a = Sram_edp.Framework.assist o in
        Alcotest.(check bool) "margins" true
          (Oracle.Yield.margins_ok ~flavor:Finfet.Library.Hvt
             ~vddc:a.Array_model.Components.vddc
             ~vssc:a.Array_model.Components.vssc
             ~vwl:a.Array_model.Components.vwl));
    case "HVT-M2 beats LVT-M2 on EDP at 1KB+ (the paper's claim)" (fun () ->
        let h = Sram_edp.Framework.optimize ~capacity_bits:cap_1kb ~config:hvt_m2 () in
        let l = Sram_edp.Framework.optimize ~capacity_bits:cap_1kb ~config:lvt_m2 () in
        Alcotest.(check bool) "hvt wins" true
          ((Sram_edp.Framework.metrics h).Array_model.Array_eval.edp
           < (Sram_edp.Framework.metrics l).Array_model.Array_eval.edp));
    case "repeated sweep hits the memo, custom space included" (fun () ->
        (* Regression: the memo key used to carry only a [default_space]
           flag, so explicitly-passed spaces — every bench sweep — never
           hit, and BENCH_runtime.json reported a 0.0 hit rate. *)
        let memo_stats () =
          List.find
            (fun (s : Runtime.Memo.stats) ->
              s.Runtime.Memo.name = "framework.optimize")
            (Runtime.Memo.registered_stats ())
        in
        let sweep () =
          List.iter
            (fun capacity_bits ->
              List.iter
                (fun config ->
                  ignore
                    (Sram_edp.Framework.optimize ~space:Opt.Space.reduced
                       ~capacity_bits ~config ()))
                Sram_edp.Framework.all_configs)
            [ 128 * 8; 256 * 8 ]
        in
        sweep ();
        let cold = memo_stats () in
        sweep ();
        let warm = memo_stats () in
        Alcotest.(check int) "no new misses on the warm sweep"
          cold.Runtime.Memo.misses warm.Runtime.Memo.misses;
        Alcotest.(check bool) "hits > 0" true
          (warm.Runtime.Memo.hits >= cold.Runtime.Memo.hits + 8);
        (* An arithmetically rebuilt grid that is a bit-exact copy of
           [reduced]'s (-0.0 included) is the same key. *)
        let rebuilt =
          { Opt.Space.reduced with
            Opt.Space.vssc_values =
              Array.init
                (Array.length Opt.Space.reduced.Opt.Space.vssc_values)
                (fun i -> -0.010 *. float_of_int (3 * i)) }
        in
        ignore
          (Sram_edp.Framework.optimize ~space:rebuilt ~capacity_bits:(128 * 8)
             ~config:hvt_m2 ());
        let after = memo_stats () in
        Alcotest.(check int) "a bit-exact rebuilt grid is a hit, not a miss"
          warm.Runtime.Memo.misses after.Runtime.Memo.misses;
        (* One ulp of noise on every negative value makes another grid,
           with its own entry and its own answer. *)
        let noisy =
          { Opt.Space.reduced with
            Opt.Space.vssc_values =
              Array.map
                (fun v -> if v < 0.0 then Float.succ v else v)
                Opt.Space.reduced.Opt.Space.vssc_values }
        in
        let o =
          Sram_edp.Framework.optimize ~space:noisy ~capacity_bits:(128 * 8)
            ~config:hvt_m2 ()
        in
        Alcotest.(check int) "noisy grid is its own entry"
          (after.Runtime.Memo.misses + 1) (memo_stats ()).Runtime.Memo.misses;
        Alcotest.(check string) "noisy grid gets a fresh answer"
          (fresh_checksum ~space:noisy ~capacity_bits:(128 * 8))
          (Opt.Exhaustive.checksum [ o.Sram_edp.Framework.result ]));
    case "an answer does not depend on the query before it" (fun () ->
        (* Pairs of HVT-M2 8KB grids the memo key once merged: V_SSC
           values under 1 uV apart, and -0.0 against 0.0.  The second
           query of each pair must get what a fresh process answers. *)
        let capacity_bits = 1024 * 8 in
        let grid vssc = { Opt.Space.default with Opt.Space.vssc_values = [| vssc |] } in
        List.iter
          (fun (first, second) ->
            ignore
              (Sram_edp.Framework.optimize ~space:(grid first) ~capacity_bits
                 ~config:hvt_m2 ());
            let o =
              Sram_edp.Framework.optimize ~space:(grid second) ~capacity_bits
                ~config:hvt_m2 ()
            in
            Alcotest.(check string)
              (Printf.sprintf "[%h] after [%h]" second first)
              (fresh_checksum ~space:(grid second) ~capacity_bits)
              (Opt.Exhaustive.checksum [ o.Sram_edp.Framework.result ]))
          [ (-0.0100004, -0.0100001); (-0.0, 0.0) ]);
    case "headline reductions grow with capacity" (fun () ->
        let h = Sram_edp.Framework.headline () in
        let reductions = List.map (fun (_, r, _) -> r) h.Sram_edp.Framework.per_capacity in
        check_increasing ~strict:true "monotone" (Array.of_list reductions);
        Alcotest.(check bool) "positive average" true
          (h.Sram_edp.Framework.avg_edp_reduction > 0.25);
        check_within "penalty bounded (paper: max 12%)" ~lo:0.0 ~hi:0.13
          h.Sram_edp.Framework.max_delay_penalty) ]

let experiments_tests =
  [ case "fig2 series cover the sweep and favor HVT on leakage" (fun () ->
        let leak = Sram_edp.Experiments.fig2b_leakage () in
        Alcotest.(check int) "points" 8 (Array.length leak);
        Array.iter
          (fun (p : Sram_edp.Experiments.voltage_point) ->
            Alcotest.(check bool) "hvt leaks less" true
              (p.Sram_edp.Experiments.hvt < p.Sram_edp.Experiments.lvt))
          leak);
    case "fig2a margins are fractions of the supply" (fun () ->
        Array.iter
          (fun (p : Sram_edp.Experiments.voltage_point) ->
            check_within "lvt" ~lo:0.0 ~hi:(0.5 *. p.Sram_edp.Experiments.vdd)
              p.Sram_edp.Experiments.lvt)
          (Sram_edp.Experiments.fig2a_hsnm ()));
    case "fig3a read current halves with HVT (paper: 2x lower)" (fun () ->
        (* The I_read row of [print_fig3a]: the calibrated stacks at nominal. *)
        let lib = Lazy.force Finfet.Library.default in
        let vdd = Finfet.Tech.vdd_nominal in
        let iread flavor = Finfet.Library.i_read lib flavor ~vddc:vdd ~vssc:0.0 in
        check_within "ratio" ~lo:0.40 ~hi:0.62
          (iread Finfet.Library.Hvt /. iread Finfet.Library.Lvt));
    case "vdd boost sweep crosses the yield rule near 550 mV" (fun () ->
        let s = Sram_edp.Experiments.fig3_read_assist Assist.Technique.Vdd_boost in
        match s.Sram_edp.Experiments.yield_crossing with
        | Some v -> check_within "crossing" ~lo:0.50 ~hi:0.58 v
        | None -> Alcotest.fail "no crossing");
    case "negative Gnd recovers the LVT bitline delay (paper: -100 mV)" (fun () ->
        let s = Sram_edp.Experiments.fig3_read_assist Assist.Technique.Negative_gnd in
        match s.Sram_edp.Experiments.lvt_delay_crossing with
        | Some v -> check_within "crossing" ~lo:(-0.15) ~hi:(-0.05) v
        | None -> Alcotest.fail "no crossing");
    case "WL overdrive meets WM near 540 mV (paper)" (fun () ->
        let s = Sram_edp.Experiments.fig5_write_assist Assist.Technique.Wl_overdrive in
        match s.Sram_edp.Experiments.wm_yield_crossing with
        | Some v -> check_within "crossing" ~lo:0.51 ~hi:0.57 v
        | None -> Alcotest.fail "no crossing");
    case "negative BL meets WM near -100 mV (paper)" (fun () ->
        let s = Sram_edp.Experiments.fig5_write_assist Assist.Technique.Negative_bl in
        match s.Sram_edp.Experiments.wm_yield_crossing with
        | Some v -> check_within "crossing" ~lo:(-0.15) ~hi:(-0.08) v
        | None -> Alcotest.fail "no crossing");
    case "design table covers all capacities and configs" (fun () ->
        let rows = Sram_edp.Experiments.design_table () in
        Alcotest.(check int) "20 rows" 20 (List.length rows);
        List.iter
          (fun (r : Sram_edp.Experiments.design_row) ->
            Alcotest.(check int) "capacity" r.Sram_edp.Experiments.capacity_bits
              (r.Sram_edp.Experiments.nr * r.Sram_edp.Experiments.nc))
          rows);
    case "M2 designs for 1KB+ adopt a deep negative Gnd (paper: -240 mV)" (fun () ->
        let rows = Sram_edp.Experiments.design_table () in
        let m2_16kb =
          List.find
            (fun (r : Sram_edp.Experiments.design_row) ->
              r.Sram_edp.Experiments.capacity_bits = 16384 * 8
              && r.Sram_edp.Experiments.config = hvt_m2)
            rows
        in
        check_within "deep vssc" ~lo:(-0.24) ~hi:(-0.15)
          m2_16kb.Sram_edp.Experiments.vssc);
    case "Figure 7(d): M2 cuts the HVT bitline delay (paper: 3.3x avg)" (fun () ->
        let rows = Sram_edp.Experiments.design_table () in
        let find method_ cap =
          List.find
            (fun (r : Sram_edp.Experiments.design_row) ->
              r.Sram_edp.Experiments.capacity_bits = cap
              && r.Sram_edp.Experiments.config
                 = { Sram_edp.Framework.flavor = Finfet.Library.Hvt; method_ })
            rows
        in
        List.iter
          (fun cap ->
            let m1 = find Opt.Space.M1 cap and m2 = find Opt.Space.M2 cap in
            Alcotest.(check bool) "bl speedup" true
              (m1.Sram_edp.Experiments.d_bl_read
               > 1.5 *. m2.Sram_edp.Experiments.d_bl_read))
          [ 1024 * 8; 4096 * 8; 16384 * 8 ]) ]

(* ----- the paper's Table 4 claims, on the full-space sweep ----- *)

(* The winner checksum pins the exact designs; these pin the claims
   EXPERIMENTS.md marks as matching, which must survive a deliberate
   model change that moves the checksum. *)
let table4_row flavor method_ cap =
  List.find
    (fun (r : Sram_edp.Experiments.design_row) ->
      r.Sram_edp.Experiments.capacity_bits = cap
      && r.Sram_edp.Experiments.config = { Sram_edp.Framework.flavor; method_ })
    (Sram_edp.Experiments.design_table ())

let kb_and_up = [ 1024 * 8; 4096 * 8; 16384 * 8 ]

let table4_claims_tests =
  let open Sram_edp.Experiments in
  let lvt = Finfet.Library.Lvt and hvt = Finfet.Library.Hvt in
  let m1 = Opt.Space.M1 and m2 = Opt.Space.M2 in
  [ case "Table 4: N_pre(LVT) >= N_pre(HVT), strictly for M2 from 1KB" (fun () ->
        List.iter
          (fun cap ->
            List.iter
              (fun method_ ->
                let l = (table4_row lvt method_ cap).n_pre
                and h = (table4_row hvt method_ cap).n_pre in
                Alcotest.(check bool)
                  (Printf.sprintf "%s %d bits: %d >= %d"
                     (Opt.Space.method_name method_) cap l h)
                  true (l >= h);
                if method_ = m2 && List.mem cap kb_and_up then
                  Alcotest.(check bool)
                    (Printf.sprintf "M2 %d bits: %d > %d" cap l h) true (l > h))
              [ m1; m2 ])
          Sram_edp.Framework.paper_capacities);
    case "Table 4: HVT-M2 has the lowest EDP from 1KB, by a growing margin" (fun () ->
        let reductions =
          List.map
            (fun cap ->
              let best = (table4_row hvt m2 cap).edp in
              List.iter
                (fun (flavor, method_) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%d bits: HVT-M2 below %s-%s" cap
                       (Finfet.Library.flavor_to_string flavor)
                       (Opt.Space.method_name method_))
                    true
                    (best < (table4_row flavor method_ cap).edp))
                [ (lvt, m1); (hvt, m1); (lvt, m2) ];
              1.0 -. (best /. (table4_row lvt m2 cap).edp))
            kb_and_up
        in
        Alcotest.(check bool)
          (Printf.sprintf "reduction grows: %s"
             (String.concat " < " (List.map (Printf.sprintf "%.3f") reductions)))
          true
          (reductions = List.sort_uniq compare reductions));
    case "Table 4: HVT-M2's delay penalty vs LVT-M2 is <= 12% from 1KB" (fun () ->
        List.iter
          (fun cap ->
            let penalty =
              ((table4_row hvt m2 cap).d_array /. (table4_row lvt m2 cap).d_array) -. 1.0
            in
            check_within (Printf.sprintf "%d bits" cap) ~lo:neg_infinity ~hi:0.12 penalty)
          kb_and_up);
    case "Table 4: V_SSC sits at its -240 mV bound in most M2 designs" (fun () ->
        let bound =
          Array.fold_left Float.min 0.0 Opt.Space.default.Opt.Space.vssc_values
        in
        check_close_abs "bound" (-0.24) bound;
        let at_bound =
          List.length
            (List.filter
               (fun (r : design_row) ->
                 r.config.Sram_edp.Framework.method_ = m2 && r.vssc = bound)
               (design_table ()))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d of 10 at the bound" at_bound) true (at_bound > 5)) ]

let () =
  Alcotest.run "core"
    [ ("units", units_tests);
      ("report", report_tests);
      ("plot", plot_tests);
      ("json", json_tests);
      ("export", export_tests);
      ("framework", framework_tests);
      ("experiments", experiments_tests @ table4_claims_tests) ]
