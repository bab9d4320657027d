(* Prometheus text exposition (format 0.0.4) of the serving telemetry.

   One render walks the same registries the stats endpoint reads —
   serve.* counters, the windowed latency histograms, memo caches, GC —
   and prints them in the exposition grammar a stock Prometheus scrape
   parses: `# TYPE` headers, `_total` counters, summary quantiles, and
   windowed gauges labelled {window="10s"}.  Served both as the
   `metrics` frame endpoint (payload: this string) and verbatim over
   the plain `GET /metrics` HTTP shim on the TCP listener. *)

let prefix = "sram_opt_"

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — dots and dashes become
   underscores ("serve.handle.optimize" -> "serve_handle_optimize"). *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && abs_float v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let header buf name kind help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s%s %s\n" prefix name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s%s %s\n" prefix name kind)

let line buf name labels value =
  Buffer.add_string buf prefix;
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let quantiles = [ ("0.5", 0.50); ("0.9", 0.90); ("0.99", 0.99) ]

let serve_counters buf =
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"serve." name then begin
        let metric = sanitize name ^ "_total" in
        header buf metric "counter" ("cumulative " ^ name);
        line buf metric [] (string_of_int v)
      end)
    (Runtime.Telemetry.snapshot ())

let windowed_counters buf =
  let rows = Obs.Window.counter_report () in
  if rows <> [] then begin
    let metric = "serve_events_window" in
    header buf metric "gauge"
      "event-counter increments within the trailing window";
    List.iter
      (fun (name, _current, windows) ->
        List.iter
          (fun (label, delta) ->
            line buf metric
              [ ("event", sanitize name); ("window", label) ]
              (string_of_int delta))
          windows)
      rows
  end

let summary buf metric help (s : Obs.Histogram.snapshot) =
  header buf metric "summary" help;
  List.iter
    (fun (q_label, q) ->
      line buf metric
        [ ("quantile", q_label) ]
        (fmt_float (Obs.Histogram.percentile s q)))
    quantiles;
  line buf (metric ^ "_sum") [] (fmt_float s.Obs.Histogram.sum);
  line buf (metric ^ "_count") [] (string_of_int s.Obs.Histogram.count)

let windowed buf metric (windows : (string * Obs.Histogram.snapshot) list) =
  header buf metric "gauge"
    "windowed latency quantiles over the trailing window";
  List.iter
    (fun (label, (s : Obs.Histogram.snapshot)) ->
      List.iter
        (fun (q_label, q) ->
          line buf metric
            [ ("window", label); ("quantile", q_label) ]
            (fmt_float (Obs.Histogram.percentile s q)))
        quantiles;
      line buf (metric ^ "_count")
        [ ("window", label) ]
        (string_of_int s.Obs.Histogram.count))
    windows

let histograms buf =
  List.iter
    (fun (name, cumulative, windows) ->
      let base = sanitize name ^ "_seconds" in
      summary buf base ("cumulative latency of " ^ name) cumulative;
      windowed buf (base ^ "_window") windows)
    (Obs.Window.report ())

(* Search-introspection exposure: journal counters from [Obs.Search].
   They appear once a search has run (the server arms the journal at
   startup), so dashboards can plot pruning effectiveness across the
   serving lifetime. *)
let search buf =
  let s = Obs.Search.summary () in
  if s.Obs.Search.incumbents > 0 || s.Obs.Search.prunes > 0
     || s.Obs.Search.chunks > 0
  then begin
    let counter name help v =
      header buf name "counter" help;
      line buf name [] (string_of_int v)
    in
    counter "search_incumbents_total"
      "incumbent improvements recorded by the search journal"
      s.Obs.Search.incumbents;
    counter "search_prunes_total"
      "geometry lines pruned by the admissible lower bound"
      s.Obs.Search.prunes;
    counter "search_chunks_total" "search chunks completed"
      s.Obs.Search.chunks;
    counter "search_events_journaled_total"
      "events retained in the bounded journal" s.Obs.Search.journaled;
    counter "search_events_dropped_total"
      "events dropped at the journal capacity bound" s.Obs.Search.dropped;
    if Float.is_finite s.Obs.Search.best_score then begin
      header buf "search_best_score" "gauge"
        "best objective score the journal has seen";
      line buf "search_best_score" [] (fmt_float s.Obs.Search.best_score)
    end
  end

(* Every ratio histogram that recorded (e.g. the pruning bound's
   slack), as a [<name>_ratio] summary. *)
let ratios buf =
  List.iter
    (fun (s : Obs.Histogram.snapshot) ->
      if s.Obs.Histogram.unit = Obs.Histogram.Ratio && s.Obs.Histogram.count > 0
      then summary buf (sanitize s.Obs.Histogram.name ^ "_ratio") s.Obs.Histogram.help s)
    (Obs.Histogram.snapshots ())

let memos buf =
  let stats = Runtime.Memo.registered_stats () in
  if stats <> [] then begin
    header buf "memo_hits_total" "counter" "memo cache hits";
    List.iter
      (fun (s : Runtime.Memo.stats) ->
        line buf "memo_hits_total"
          [ ("memo", s.Runtime.Memo.name) ]
          (string_of_int s.Runtime.Memo.hits))
      stats;
    header buf "memo_misses_total" "counter" "memo cache misses";
    List.iter
      (fun (s : Runtime.Memo.stats) ->
        line buf "memo_misses_total"
          [ ("memo", s.Runtime.Memo.name) ]
          (string_of_int s.Runtime.Memo.misses))
      stats;
    header buf "memo_hit_rate" "gauge" "memo cache hit rate";
    List.iter
      (fun (s : Runtime.Memo.stats) ->
        line buf "memo_hit_rate"
          [ ("memo", s.Runtime.Memo.name) ]
          (fmt_float (Runtime.Memo.hit_rate s)))
      stats;
    header buf "memo_entries" "gauge" "memo cache occupancy";
    List.iter
      (fun (s : Runtime.Memo.stats) ->
        line buf "memo_entries"
          [ ("memo", s.Runtime.Memo.name) ]
          (string_of_int s.Runtime.Memo.length))
      stats
  end

let gc buf =
  let s = Gc.quick_stat () in
  header buf "gc_minor_words_total" "counter" "words allocated in the minor heap";
  line buf "gc_minor_words_total" [] (fmt_float s.Gc.minor_words);
  header buf "gc_major_words_total" "counter" "words allocated in the major heap";
  line buf "gc_major_words_total" [] (fmt_float s.Gc.major_words);
  header buf "gc_major_collections_total" "counter" "major GC cycles";
  line buf "gc_major_collections_total" [] (string_of_int s.Gc.major_collections);
  header buf "gc_heap_words" "gauge" "major heap size in words";
  line buf "gc_heap_words" [] (string_of_int s.Gc.heap_words)

let build_info buf =
  header buf "build_info" "gauge" "build metadata";
  line buf "build_info"
    [ ("ocaml", Sys.ocaml_version); ("jobs", string_of_int (Runtime.Pool.default_jobs ())) ]
    "1"

let render () =
  let buf = Buffer.create 4096 in
  serve_counters buf;
  windowed_counters buf;
  histograms buf;
  search buf;
  ratios buf;
  memos buf;
  gc buf;
  build_info buf;
  Buffer.contents buf
