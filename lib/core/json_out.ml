type t = Persist.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let to_string_pretty = Persist.Json.to_string_pretty

let of_metrics (m : Array_model.Array_eval.metrics) =
  Obj
    [ ("d_read_s", Float m.Array_model.Array_eval.d_read);
      ("d_write_s", Float m.Array_model.Array_eval.d_write);
      ("d_array_s", Float m.Array_model.Array_eval.d_array);
      ("e_read_j", Float m.Array_model.Array_eval.e_read);
      ("e_write_j", Float m.Array_model.Array_eval.e_write);
      ("e_switching_j", Float m.Array_model.Array_eval.e_switching);
      ("e_leakage_j", Float m.Array_model.Array_eval.e_leakage);
      ("e_total_j", Float m.Array_model.Array_eval.e_total);
      ("edp_js", Float m.Array_model.Array_eval.edp);
      ("d_bl_read_s", Float m.Array_model.Array_eval.d_bl_read) ]

let of_design_row (r : Experiments.design_row) =
  Obj
    [ ("capacity_bits", Int r.Experiments.capacity_bits);
      ("config", String (Framework.config_name r.Experiments.config));
      ("nr", Int r.Experiments.nr);
      ("nc", Int r.Experiments.nc);
      ("n_pre", Int r.Experiments.n_pre);
      ("n_wr", Int r.Experiments.n_wr);
      ("vddc_v", Float r.Experiments.vddc);
      ("vssc_v", Float r.Experiments.vssc);
      ("vwl_v", Float r.Experiments.vwl);
      ("d_array_s", Float r.Experiments.d_array);
      ("e_total_j", Float r.Experiments.e_total);
      ("edp_js", Float r.Experiments.edp);
      ("d_bl_read_s", Float r.Experiments.d_bl_read) ]

let of_headline (h : Framework.headline) =
  Obj
    [ ("avg_edp_reduction", Float h.Framework.avg_edp_reduction);
      ("avg_delay_penalty", Float h.Framework.avg_delay_penalty);
      ("max_delay_penalty", Float h.Framework.max_delay_penalty);
      ("per_capacity",
       List
         (List.map
            (fun (bits, reduction, penalty) ->
              Obj
                [ ("capacity_bits", Int bits);
                  ("edp_reduction", Float reduction);
                  ("delay_penalty", Float penalty) ])
            h.Framework.per_capacity)) ]

let design_table_json () =
  List (List.map of_design_row (Experiments.design_table ()))

let of_memo_stats (s : Runtime.Memo.stats) =
  Obj
    [ ("name", String s.Runtime.Memo.name);
      ("capacity", Int s.Runtime.Memo.capacity);
      ("length", Int s.Runtime.Memo.length);
      ("hits", Int s.Runtime.Memo.hits);
      ("misses", Int s.Runtime.Memo.misses);
      ("evictions", Int s.Runtime.Memo.evictions);
      ("hit_rate", Float (Runtime.Memo.hit_rate s));
      ("occupancy", Float (Runtime.Memo.occupancy s)) ]

let of_histogram (s : Obs.Histogram.snapshot) =
  Obj
    [ ("name", String s.Obs.Histogram.name);
      ("samples", Int s.Obs.Histogram.count);
      ("sample_every", Int s.Obs.Histogram.sample);
      ("mean_s", Float (Obs.Histogram.mean s));
      ("min_s", Float s.Obs.Histogram.min_s);
      ("max_s", Float s.Obs.Histogram.max_s);
      ("p50_s", Float (Obs.Histogram.percentile s 0.50));
      ("p90_s", Float (Obs.Histogram.percentile s 0.90));
      ("p99_s", Float (Obs.Histogram.percentile s 0.99));
      ("gc_coincident", Int s.Obs.Histogram.gc_coincident) ]

(* Empty histograms are dropped rather than emitted: their min/max are
   infinities, which have no JSON representation. *)
let histograms_json () =
  List
    (List.filter_map
       (fun (s : Obs.Histogram.snapshot) ->
         if s.Obs.Histogram.count > 0 then Some (of_histogram s) else None)
       (Obs.Histogram.snapshots ()))

(* A span row per {!Obs.Histogram.per_call} histogram: its count and
   sum are the timed site's calls and total seconds. *)
let telemetry_json () =
  Obj
    [ ("counters",
       Obj
         (List.map (fun (name, n) -> (name, Int n)) (Runtime.Telemetry.snapshot ())));
      ("spans",
       List
         (List.filter_map
            (fun (s : Obs.Histogram.snapshot) ->
              if Obs.Histogram.per_call s && s.Obs.Histogram.count > 0 then
                Some
                  (Obj
                     [ ("name", String s.Obs.Histogram.name);
                       ("calls", Int s.Obs.Histogram.count);
                       ("total_s", Float s.Obs.Histogram.sum) ])
              else None)
            (Obs.Histogram.snapshots ()))) ]

(* A windowed slice never emits min/max (re-estimated bounds, and
   infinities when the window is empty) — just the sample count, sum
   and quantiles, all of which are well-defined (0) for an empty
   window. *)
let of_window_slice label (s : Obs.Histogram.snapshot) =
  Obj
    [ ("window", String label);
      ("samples", Int s.Obs.Histogram.count);
      ("sum_s", Float s.Obs.Histogram.sum);
      ("mean_s", Float (Obs.Histogram.mean s));
      ("p50_s", Float (Obs.Histogram.percentile s 0.50));
      ("p90_s", Float (Obs.Histogram.percentile s 0.90));
      ("p99_s", Float (Obs.Histogram.percentile s 0.99)) ]

(* The `windows` section of the stats schema (DESIGN.md §7): recent-
   traffic views of the windowed histograms and SLO counters, absent
   entirely for one-shot runs (nothing registered a window). *)
let windows_json () =
  let histograms = Obs.Window.report () in
  let counters = Obs.Window.counter_report () in
  if histograms = [] && counters = [] then None
  else
    Some
      (Obj
         [ ("period_s", Float (Obs.Window.current_period ()));
           ("histograms",
            List
              (List.filter_map
                 (fun (name, cumulative, windows) ->
                   if cumulative.Obs.Histogram.count = 0 then None
                   else
                     Some
                       (Obj
                          [ ("name", String name);
                            ("cumulative", of_histogram cumulative);
                            ("windows",
                             List
                               (List.map
                                  (fun (label, s) -> of_window_slice label s)
                                  windows)) ]))
                 histograms));
           ("counters",
            List
              (List.map
                 (fun (name, total, windows) ->
                   Obj
                     [ ("name", String name);
                       ("total", Int total);
                       ("windows",
                        List
                          (List.map
                             (fun (label, delta) ->
                               Obj
                                 [ ("window", String label);
                                   ("delta", Int delta) ])
                             windows)) ])
                 counters)) ])

(* When the process is (or was) a server, surface the [serve.*] request
   counters as their own section — BENCH_serve.json and the `stats`
   endpoint then carry the serving telemetry under one key instead of
   scattered through the flat counter list.  One-shot runs have no
   serve counters and omit the section, keeping the other BENCH_*.json
   schemas unchanged. *)
let server_stats_json () =
  let prefix = "serve." in
  let serve_counters =
    List.filter_map
      (fun (name, v) ->
        if String.starts_with ~prefix name then
          Some
            ( String.sub name (String.length prefix)
                (String.length name - String.length prefix),
              Int v )
        else None)
      (Runtime.Telemetry.snapshot ())
  in
  if serve_counters = [] then None else Some (Obj serve_counters)

(* ----- search journal (Obs.Search) ----- *)

(* Non-finite floats have no JSON representation, and several journal
   fields legitimately carry them (EDP of a prune event, V_SSC of a
   whole-line event, timestamps of an improvement that never happened) —
   those fields are omitted rather than emitted. *)
let finite_field name v = if Float.is_finite v then [ (name, Float v) ] else []

let of_search_design (d : Obs.Search.design) =
  Obj
    ([ ("nr", Int d.Obs.Search.nr);
       ("nc", Int d.Obs.Search.nc);
       ("n_pre", Int d.Obs.Search.n_pre);
       ("n_wr", Int d.Obs.Search.n_wr) ]
     @ finite_field "vssc_v" d.Obs.Search.vssc)

let of_search_event (ev : Obs.Search.event) =
  Obj
    ([ ("t_s", Float ev.Obs.Search.t);
       ("kind", String (Obs.Search.kind_name ev.Obs.Search.kind));
       ("source", String ev.Obs.Search.source) ]
     @ finite_field "score" ev.Obs.Search.score
     @ finite_field "edp_js" ev.Obs.Search.edp
     @ (match ev.Obs.Search.design with
        | Some d -> [ ("design", of_search_design d) ]
        | None -> [])
     @
     match ev.Obs.Search.kind with
     | Obs.Search.Chunk -> [ ("chunk", Int ev.Obs.Search.detail) ]
     | Obs.Search.Incumbent | Obs.Search.Prune -> [])

let of_search_summary (s : Obs.Search.summary) =
  Obj
    ([ ("incumbents", Int s.Obs.Search.incumbents);
       ("chunks", Int s.Obs.Search.chunks);
       ("prunes", Int s.Obs.Search.prunes);
       ("prune_sample", Int Obs.Search.prune_sample);
       ("journaled", Int s.Obs.Search.journaled);
       ("dropped", Int s.Obs.Search.dropped) ]
     @ finite_field "best_score" s.Obs.Search.best_score
     @ finite_field "first_improvement_s" s.Obs.Search.first_improvement_s
     @ finite_field "last_improvement_s" s.Obs.Search.last_improvement_s)

(* The full convergence curve: what --search-log writes and the bench
   harness embeds.  Events are already in timestamp order. *)
let search_journal_json () =
  Obj
    [ ("summary", of_search_summary (Obs.Search.summary ()));
      ("events", List (List.map of_search_event (Obs.Search.events ()))) ]

(* ----- attribution (Array_eval.attribute) ----- *)

let of_terms terms =
  List (List.map (fun (name, v) -> Obj [ ("component", String name);
                                         ("value", Float v) ]) terms)

let of_attribution (at : Array_model.Array_eval.attribution) =
  let open Array_model.Array_eval in
  Obj
    [ ("metrics", of_metrics at.at_metrics);
      ("alpha", Float at.at_alpha);
      ("beta", Float at.at_beta);
      (* Framework.explain returns only attributions whose totals
         equal the search's metrics bit for bit. *)
      ("consistent_bitwise", Bool true);
      ("read_energy_j", of_terms at.at_read_energy);
      ("write_energy_j", of_terms at.at_write_energy);
      ("read_delay_row_s", of_terms at.at_read_row);
      ("read_delay_col_s", of_terms at.at_read_col);
      ("read_delay_tail_s", of_terms at.at_read_tail);
      ("write_delay_row_s", of_terms at.at_write_row);
      ("write_delay_col_s", of_terms at.at_write_col);
      ("write_delay_tail_s", of_terms at.at_write_tail);
      ("e_total_rollup_j", of_terms (Opt.Explain.energy_rollup at)) ]

let of_sensitivity (axes : Opt.Explain.axis list) =
  let of_neighbor = function
    | None -> Null
    | Some (n : Opt.Explain.neighbor) ->
      Obj
        [ ("value", Float n.Opt.Explain.nb_value);
          ("score", Float n.Opt.Explain.nb_score);
          ("delta", Float n.Opt.Explain.nb_delta) ]
  in
  List
    (List.map
       (fun (ax : Opt.Explain.axis) ->
         Obj
           [ ("axis", String ax.Opt.Explain.ax_name);
             ("value", Float ax.Opt.Explain.ax_value);
             ("minus", of_neighbor ax.Opt.Explain.ax_minus);
             ("plus", of_neighbor ax.Opt.Explain.ax_plus) ])
       axes)

let of_pareto (p : Opt.Explain.provenance) =
  let of_candidate (c : Opt.Exhaustive.candidate) =
    let g = c.Opt.Exhaustive.geometry in
    let m = c.Opt.Exhaustive.metrics in
    Obj
      [ ("nr", Int g.Array_model.Geometry.nr);
        ("nc", Int g.Array_model.Geometry.nc);
        ("n_pre", Int g.Array_model.Geometry.n_pre);
        ("n_wr", Int g.Array_model.Geometry.n_wr);
        ("vssc_v", Float c.Opt.Exhaustive.assist.Array_model.Components.vssc);
        ("d_array_s", Float m.Array_model.Array_eval.d_array);
        ("e_total_j", Float m.Array_model.Array_eval.e_total);
        ("edp_js", Float m.Array_model.Array_eval.edp) ]
  in
  Obj
    [ ("source", String p.Opt.Explain.pv_source);
      ("evaluated", Int p.Opt.Explain.pv_evaluated);
      ("dominated", Int p.Opt.Explain.pv_dominated);
      ("front", List (List.map of_candidate p.Opt.Explain.pv_front));
      ("knee",
       match p.Opt.Explain.pv_knee with
       | Some c -> of_candidate c
       | None -> Null) ]

let runtime_stats_json () =
  let base =
    [ ("jobs", Int (Runtime.Pool.default_jobs ()));
      ("telemetry", telemetry_json ());
      ("memos", List (List.map of_memo_stats (Runtime.Memo.registered_stats ())));
      ("histograms", histograms_json ()) ]
  in
  let optional =
    (match windows_json () with
     | None -> []
     | Some w -> [ ("windows", w) ])
    @ (match server_stats_json () with
       | None -> []
       | Some server -> [ ("server", server) ])
    @
    (* Convergence summary rides along whenever a journal recorded
       anything (events or counted prunes). *)
    (let s = Obs.Search.summary () in
     if s.Obs.Search.journaled > 0 || s.Obs.Search.prunes > 0 then
       [ ("search_journal", of_search_summary s) ]
     else [])
  in
  Obj (base @ optional)
