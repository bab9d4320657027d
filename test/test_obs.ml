(* Tests of the lib/obs observability subsystem: clock monotonicity,
   histogram unit + QCheck properties (shard merge equals the whole,
   percentile ordering, bucket roundtrip), trace span balance and Chrome
   JSON well-formedness, timed spans recording into their histogram, the
   leveled logger, the progress counters, and a determinism guard that
   the instrumentation never changes which design the search picks. *)

open Testutil

(* Fresh registry names per call: [Histogram.create] is get-or-create,
   so property iterations must not share state. *)
let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "test.%s.%d" prefix !n

(* ----- Clock ----- *)

let clock_tests =
  [ case "now is monotone non-decreasing" (fun () ->
        let prev = ref (Obs.Clock.now ()) in
        for i = 1 to 1000 do
          let t = Obs.Clock.now () in
          if t < !prev then
            Alcotest.failf "clock went backwards at step %d: %.9f -> %.9f" i
              !prev t;
          prev := t
        done);
    case "now advances across a sleep" (fun () ->
        let t0 = Obs.Clock.now () in
        Unix.sleepf 0.01;
        let dt = Obs.Clock.now () -. t0 in
        check_within "10 ms sleep measured" ~lo:0.005 ~hi:5.0 dt) ]

(* ----- Histogram ----- *)

let histogram_tests =
  [ case "snapshot accounting" (fun () ->
        let h = Obs.Histogram.create (fresh_name "acct") in
        List.iter (Obs.Histogram.observe h) [ 1e-6; 2e-6; 3e-6 ];
        let s = Obs.Histogram.snapshot h in
        Alcotest.(check int) "count" 3 s.Obs.Histogram.count;
        check_close "sum" 6e-6 s.Obs.Histogram.sum;
        check_close "min" 1e-6 s.Obs.Histogram.min_s;
        check_close "max" 3e-6 s.Obs.Histogram.max_s;
        check_close "mean" 2e-6 (Obs.Histogram.mean s);
        Alcotest.(check int)
          "bucket totals match count" 3
          (Array.fold_left ( + ) 0 s.Obs.Histogram.buckets));
    case "empty snapshot percentile is 0" (fun () ->
        let h = Obs.Histogram.create (fresh_name "empty") in
        let s = Obs.Histogram.snapshot h in
        Alcotest.(check int) "count" 0 s.Obs.Histogram.count;
        check_close_abs "p99" 0.0 (Obs.Histogram.percentile s 0.99));
    case "create is get-or-create by name" (fun () ->
        let name = fresh_name "shared" in
        let a = Obs.Histogram.create name in
        let b = Obs.Histogram.create name in
        Obs.Histogram.observe a 1e-6;
        Obs.Histogram.observe b 2e-6;
        let s = Obs.Histogram.snapshot a in
        Alcotest.(check int) "both observations landed" 2
          s.Obs.Histogram.count);
    case "tick is gated on Control.is_enabled" (fun () ->
        let h = Obs.Histogram.create ~sample:1 (fresh_name "gate") in
        Obs.Control.set_enabled false;
        for _ = 1 to 10 do
          if Obs.Histogram.tick h then
            Alcotest.fail "tick fired while disabled"
        done;
        Obs.Control.set_enabled true;
        let fired = ref 0 in
        for _ = 1 to 10 do
          if Obs.Histogram.tick h then incr fired
        done;
        Obs.Control.set_enabled false;
        Alcotest.(check int) "sample=1 fires every call" 10 !fired);
    case "sampled tick fires once per period" (fun () ->
        let h = Obs.Histogram.create ~sample:8 (fresh_name "period") in
        Obs.Control.set_enabled true;
        let fired = ref 0 in
        for _ = 1 to 80 do
          if Obs.Histogram.tick h then incr fired
        done;
        Obs.Control.set_enabled false;
        Alcotest.(check int) "80 calls at sample=8" 10 !fired);
    case "time observes and is exception-safe" (fun () ->
        let h = Obs.Histogram.create ~sample:1 (fresh_name "time") in
        Obs.Control.set_enabled true;
        let v = Obs.Histogram.time h (fun () -> 42) in
        Alcotest.(check int) "result" 42 v;
        (try
           ignore (Obs.Histogram.time h (fun () -> failwith "boom") : int);
           Alcotest.fail "exception swallowed"
         with Failure _ -> ());
        Obs.Control.set_enabled false;
        let s = Obs.Histogram.snapshot h in
        Alcotest.(check int) "both runs observed" 2 s.Obs.Histogram.count);
    case "a ratio row of the report has no time suffix" (fun () ->
        let ratio = Obs.Histogram.create ~unit:Obs.Histogram.Ratio (fresh_name "ratio") in
        let seconds = Obs.Histogram.create (fresh_name "seconds") in
        List.iter
          (fun h -> List.iter (Obs.Histogram.observe h) [ 0.1116; 0.1116 ])
          [ ratio; seconds ];
        let path = Filename.temp_file "report" ".txt" in
        let oc = open_out path in
        Obs.Histogram.print_report ~channel:oc ~counters:[] ();
        close_out oc;
        let rows =
          String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
        in
        Sys.remove path;
        let row h =
          let name = (Obs.Histogram.snapshot h).Obs.Histogram.name ^ " " in
          match List.find_opt (String.starts_with ~prefix:name) rows with
          | Some r -> r
          | None -> Alcotest.failf "no report row for %s" name
        in
        let has_time_suffix r =
          List.exists
            (fun w -> List.mem w [ "s"; "ms"; "us"; "ns" ])
            (String.split_on_char ' ' r)
        in
        Alcotest.(check bool) ("seconds: " ^ row seconds) true
          (has_time_suffix (row seconds));
        Alcotest.(check bool) ("ratio: " ^ row ratio) false
          (has_time_suffix (row ratio))) ]

(* ----- Histogram QCheck properties ----- *)

let to_alco = QCheck_alcotest.to_alcotest

let latency_gen =
  (* Spans the histogram's designed range: 1 ns floor to ~4 s ceiling. *)
  QCheck.(map (fun x -> 2e-9 *. Float.exp2 (x *. 30.0)) (float_bound_inclusive 1.0))

let latencies_gen = QCheck.(list_of_size (QCheck.Gen.int_range 1 200) latency_gen)

let prop_percentiles_ordered =
  QCheck.Test.make ~name:"p50 <= p90 <= p99, all within [min, max]" ~count:100
    latencies_gen
    (fun xs ->
      let h = Obs.Histogram.create (fresh_name "pct") in
      List.iter (Obs.Histogram.observe h) xs;
      let s = Obs.Histogram.snapshot h in
      let p50 = Obs.Histogram.percentile s 0.50 in
      let p90 = Obs.Histogram.percentile s 0.90 in
      let p99 = Obs.Histogram.percentile s 0.99 in
      p50 <= p90 && p90 <= p99
      && p50 >= s.Obs.Histogram.min_s
      && p99 <= s.Obs.Histogram.max_s)

let prop_bucket_roundtrip =
  QCheck.Test.make ~name:"bucket_of v lands within bucket_bounds" ~count:200
    latency_gen
    (fun v ->
      let h = Obs.Histogram.create (fresh_name "roundtrip") in
      let i = Obs.Histogram.bucket_of h v in
      let s = Obs.Histogram.snapshot h in
      let lo, hi = Obs.Histogram.bucket_bounds s i in
      (* 1 ulp of slack: bucket_of computes the index in log space while
         bucket_bounds rebuilds the edges with powers. *)
      v >= lo *. (1.0 -. 1e-12) && v <= hi *. (1.0 +. 1e-12))

let histogram_property_tests =
  [ to_alco prop_percentiles_ordered;
    to_alco prop_bucket_roundtrip ]

(* ----- Windowed metrics ----- *)

(* Exact equality for the windowed-ring invariant: counts and buckets
   as ints, the sum by bits (the full-history window diffs against the
   zero baseline, so even the float must reproduce). *)
let exact_eq (a : Obs.Histogram.snapshot) (b : Obs.Histogram.snapshot) =
  a.Obs.Histogram.count = b.Obs.Histogram.count
  && Int64.bits_of_float a.Obs.Histogram.sum
     = Int64.bits_of_float b.Obs.Histogram.sum
  && a.Obs.Histogram.buckets = b.Obs.Histogram.buckets
  && a.Obs.Histogram.gc_coincident = b.Obs.Histogram.gc_coincident

let batches_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 12)
      (list_of_size (Gen.int_range 0 40) latency_gen))

let prop_window_full_history_equals_cumulative =
  QCheck.Test.make
    ~name:"full-history window equals the cumulative histogram at every rotation"
    ~count:60 batches_gen
    (fun batches ->
      let h = Obs.Histogram.create (fresh_name "winfull") in
      let w = Obs.Window.create h in
      List.for_all
        (fun batch ->
          List.iter (Obs.Histogram.observe h) batch;
          Obs.Window.rotate w;
          exact_eq
            (Obs.Window.merged w ~intervals:16)
            (Obs.Histogram.snapshot h))
        batches)

let prop_one_interval_window_sees_only_its_batch =
  QCheck.Test.make
    ~name:"one-interval window holds exactly the samples since the last rotation"
    ~count:60 batches_gen
    (fun batches ->
      let h = Obs.Histogram.create (fresh_name "winone") in
      let w = Obs.Window.create h in
      Obs.Window.rotate w;
      List.for_all
        (fun batch ->
          List.iter (Obs.Histogram.observe h) batch;
          let m = Obs.Window.merged w ~intervals:1 in
          let seen = m.Obs.Histogram.count = List.length batch in
          Obs.Window.rotate w;
          let drained =
            (Obs.Window.merged w ~intervals:1).Obs.Histogram.count = 0
          in
          seen && drained)
        batches)

let window_tests =
  [ to_alco prop_window_full_history_equals_cumulative;
    to_alco prop_one_interval_window_sees_only_its_batch;
    case "cold-start spike ages out of the window, stays cumulative"
      (fun () ->
        let h = Obs.Histogram.create (fresh_name "aging") in
        let w = Obs.Window.create h in
        (* One slow cold-start request... *)
        Obs.Histogram.observe h 0.5;
        (* ...ages past the 300-interval ring... *)
        for _ = 1 to 301 do
          Obs.Window.rotate w
        done;
        (* ...then warm traffic. *)
        for _ = 1 to 50 do
          Obs.Histogram.observe h 2e-6
        done;
        let windowed = Obs.Window.merged w ~intervals:300 in
        let cumulative = Obs.Window.cumulative w in
        Alcotest.(check int) "window holds only recent" 50
          windowed.Obs.Histogram.count;
        Alcotest.(check int) "cumulative holds everything" 51
          cumulative.Obs.Histogram.count;
        check_within "windowed p99 is the warm path" ~lo:0.0 ~hi:1e-4
          (Obs.Histogram.percentile windowed 0.99);
        check_within "cumulative p99 still remembers the spike" ~lo:0.01
          ~hi:0.5
          (Obs.Histogram.percentile cumulative 0.99));
    case "tracked counters expose windowed deltas" (fun () ->
        let v = ref 0 in
        let name = fresh_name "slo" in
        Obs.Window.track name (fun () -> !v);
        v := 5;
        Obs.Window.rotate_all ();
        v := 12;
        let row () =
          match
            List.find_opt
              (fun (n, _, _) -> n = name)
              (Obs.Window.counter_report ())
          with
          | Some r -> r
          | None -> Alcotest.failf "counter %s not reported" name
        in
        let _, current, windows = row () in
        Alcotest.(check int) "current value" 12 current;
        List.iter
          (fun (label, delta) ->
            Alcotest.(check int)
              (label ^ " delta falls back to the creation baseline") 12 delta)
          windows;
        (* Ten quiet rotations: the early bump leaves the 10s window but
           stays in the longer ones. *)
        for _ = 1 to 10 do
          Obs.Window.rotate_all ()
        done;
        let _, _, windows = row () in
        Alcotest.(check int) "10s delta drained" 0 (List.assoc "10s" windows);
        Alcotest.(check int) "300s delta retained" 12
          (List.assoc "300s" windows));
    case "maybe_rotate rotates once per elapsed period" (fun () ->
        Obs.Window.reset_all ();
        let h = Obs.Histogram.create (fresh_name "period") in
        let w = Obs.Window.create h in
        Obs.Window.maybe_rotate ~now:100.0 ();
        Obs.Window.maybe_rotate ~now:100.5 ();
        Alcotest.(check int) "within the period: no rotation" 0
          (Obs.Window.retained w);
        Obs.Window.maybe_rotate ~now:101.1 ();
        Alcotest.(check int) "one period: one rotation" 1
          (Obs.Window.retained w);
        (* A stalled loop catches up one rotation per missed period. *)
        Obs.Window.maybe_rotate ~now:104.2 ();
        Alcotest.(check int) "three missed periods: three rotations" 4
          (Obs.Window.retained w);
        Obs.Window.reset_all ()) ]

(* ----- Trace ----- *)

(* Every B must close with an E on its own slot's timeline. *)
let check_balanced events =
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.Obs.Trace.ev_slot with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks e.Obs.Trace.ev_slot s;
          s
      in
      match e.Obs.Trace.ev_phase with
      | Obs.Trace.B -> stack := e.Obs.Trace.ev_name :: !stack
      | Obs.Trace.E -> (
        match !stack with
        | top :: rest ->
          Alcotest.(check string)
            (Printf.sprintf "E matches B on slot %d" e.Obs.Trace.ev_slot)
            top e.Obs.Trace.ev_name;
          stack := rest
        | [] ->
          Alcotest.failf "E %S without B on slot %d" e.Obs.Trace.ev_name
            e.Obs.Trace.ev_slot)
      | Obs.Trace.I | Obs.Trace.X _ -> ())
    events;
  Hashtbl.iter
    (fun slot stack ->
      if !stack <> [] then
        Alcotest.failf "unclosed span %S on slot %d" (List.hd !stack) slot)
    stacks

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let trace_tests =
  [ case "spans nest and balance" (fun () ->
        Obs.Trace.start ();
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span "inner" (fun () -> ()));
        Obs.Trace.stop ();
        let events = Obs.Trace.events () in
        Alcotest.(check int) "2 B + 2 E" 4 (List.length events);
        check_balanced events);
    case "with_span closes on exception" (fun () ->
        Obs.Trace.start ();
        (try
           Obs.Trace.with_span "raiser" (fun () -> failwith "boom")
         with Failure _ -> ());
        Obs.Trace.stop ();
        check_balanced (Obs.Trace.events ()));
    case "no events recorded when stopped" (fun () ->
        Obs.Trace.start ();
        Obs.Trace.stop ();
        Obs.Trace.with_span "ghost" (fun () -> ());
        Alcotest.(check int) "buffer stays empty" 0
          (List.length (Obs.Trace.events ())));
    case "fine_active only under `Fine detail" (fun () ->
        Obs.Trace.start ~detail:`Coarse ();
        Alcotest.(check bool) "coarse: active" true (Obs.Trace.active ());
        Alcotest.(check bool) "coarse: not fine" false (Obs.Trace.fine_active ());
        Obs.Trace.stop ();
        Obs.Trace.start ~detail:`Fine ();
        Alcotest.(check bool) "fine: fine" true (Obs.Trace.fine_active ());
        Obs.Trace.stop ());
    case "chrome export is well-formed" (fun () ->
        Obs.Trace.start ();
        Obs.Trace.with_span "exported" (fun () -> ());
        Obs.Trace.stop ();
        let json = Obs.Trace.(chrome_string_of_events (events ())) in
        Alcotest.(check bool) "has traceEvents" true
          (contains ~needle:"\"traceEvents\"" json);
        Alcotest.(check bool) "names the process" true
          (contains ~needle:"\"process_name\"" json);
        Alcotest.(check bool) "names a thread" true
          (contains ~needle:"\"thread_name\"" json);
        Alcotest.(check bool) "has the span begin" true
          (contains ~needle:"\"name\":\"exported\",\"ph\":\"B\"" json);
        Alcotest.(check bool) "has the span end" true
          (contains ~needle:"\"ph\":\"E\"" json);
        Alcotest.(check bool) "single process id" false
          (contains ~needle:"\"pid\":1" json));
    case "parallel search produces balanced per-worker timelines" (fun () ->
        let env =
          Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
        in
        Obs.Trace.start ~detail:`Fine ();
        ignore
          (with_jobs 2 (fun () ->
               Opt.Exhaustive.search ~space:Opt.Space.reduced ~env
                 ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()));
        Obs.Trace.stop ();
        let events = Obs.Trace.events () in
        check_balanced events;
        let has name =
          List.exists
            (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev_name = name)
            events
        in
        Alcotest.(check bool) "exhaustive.search span" true
          (has "exhaustive.search");
        Alcotest.(check bool) "pool.chunk spans" true (has "pool.chunk");
        Alcotest.(check bool) "per-geometry eval spans (fine)" true
          (has "exhaustive.eval")) ]

(* ----- Trace context ----- *)

let context_tests =
  [ case "with_context tags exported events and restores on exit" (fun () ->
        Obs.Trace.start ();
        Obs.Trace.with_context "ctx-42" (fun () ->
            Obs.Trace.with_span "ctxspan" (fun () -> ()));
        Obs.Trace.stop ();
        Alcotest.(check bool) "context cleared after with_context" true
          (Obs.Trace.get_context () = None);
        let json = Obs.Trace.(chrome_string_of_events (events ())) in
        Alcotest.(check bool) "span carries args.trace_id" true
          (contains ~needle:"\"args\":{\"trace_id\":\"ctx-42\"}" json));
    case "with_context restores the previous id on exception" (fun () ->
        Obs.Trace.with_context "outer-ctx" (fun () ->
            (try Obs.Trace.with_context "inner-ctx" (fun () -> failwith "boom")
             with Failure _ -> ());
            Alcotest.(check (option string)) "outer restored" (Some "outer-ctx")
              (Obs.Trace.get_context ()));
        Alcotest.(check bool) "cleared" true (Obs.Trace.get_context () = None))
  ]

(* ----- Flight recorder ----- *)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let with_log_capture level f =
  let path = Filename.temp_file "sram_opt_log" ".txt" in
  let oc = open_out path in
  Obs.Log.set_channel oc;
  Obs.Log.set_level level;
  f ();
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Log.set_channel stderr;
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  text

let flight_tests =
  [ case "flight ring is bounded and keeps the newest events" (fun () ->
        Obs.Trace.arm_flight ();
        for i = 1 to 5000 do
          Obs.Trace.with_span (Printf.sprintf "fl.%d" i) ignore
        done;
        Obs.Trace.disarm_flight ();
        let evs = Obs.Trace.flight_events () in
        Alcotest.(check bool) "bounded by capacity" true
          (List.length evs <= 4096);
        let names = List.map (fun e -> e.Obs.Trace.ev_name) evs in
        Alcotest.(check bool) "newest retained" true (List.mem "fl.5000" names);
        Alcotest.(check bool) "oldest overwritten" false
          (List.mem "fl.1" names));
    case "log sink captures warn+ even with a quiet console" (fun () ->
        Obs.Flight.arm ();
        let text =
          with_log_capture Obs.Log.Quiet (fun () ->
              Obs.Log.warn ~section:"flight" "sinkme %d" 7;
              Obs.Log.info ~section:"flight" "below the sink bar")
        in
        Alcotest.(check string) "console stayed quiet" "" text;
        let logs = Obs.Flight.recent_logs () in
        Alcotest.(check bool) "warn captured" true
          (List.exists
             (fun le -> contains ~needle:"sinkme 7" le.Obs.Flight.le_text)
             logs);
        Alcotest.(check bool) "info not captured" false
          (List.exists
             (fun le -> contains ~needle:"below the sink" le.Obs.Flight.le_text)
             logs);
        Obs.Flight.disarm ());
    case "dump writes a Perfetto-loadable file carrying the trace id"
      (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sram_opt_flight_%d" (Unix.getpid ()))
        in
        Obs.Flight.arm ~dir ();
        Obs.Trace.with_context "tid-obs-1" (fun () ->
            Obs.Trace.with_span "flight.work" (fun () ->
                ignore
                  (with_log_capture Obs.Log.Quiet (fun () ->
                       Obs.Log.warn ~section:"flight" "trouble brewing"))));
        (match Obs.Flight.dump ~reason:"unit test" ~trace_id:"tid-obs-1" () with
        | None -> Alcotest.fail "dump refused to write"
        | Some path ->
          let text = read_file path in
          Alcotest.(check bool) "chrome trace shape" true
            (contains ~needle:"\"traceEvents\"" text);
          Alcotest.(check bool) "span retained" true
            (contains ~needle:"flight.work" text);
          Alcotest.(check bool) "warn line retained" true
            (contains ~needle:"log.warn flight: trouble brewing" text);
          Alcotest.(check bool) "trace id attributed" true
            (contains ~needle:"\"trace_id\":\"tid-obs-1\"" text);
          Alcotest.(check bool) "dump reason marker" true
            (contains ~needle:"flight.dump: unit test" text);
          (match Persist.Json.of_string text with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "dump is not valid JSON: %s" e);
          Sys.remove path);
        Obs.Flight.disarm ());
    case "dumps with distinct trace ids get distinct filenames" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sram_opt_flightname_%d" (Unix.getpid ()))
        in
        Obs.Flight.arm ~dir ();
        let dump tid =
          match Obs.Flight.dump ~reason:"same reason" ?trace_id:tid () with
          | Some path -> path
          | None -> Alcotest.fail "dump refused to write"
        in
        let a = dump (Some "tid-a") in
        let b = dump (Some "tid-b") in
        let c = dump None in
        (* Same reason, same pid: the sequence number and the trace id
           keep a crash-looping request from overwriting its own
           evidence. *)
        Alcotest.(check bool) "all distinct" true
          (a <> b && b <> c && a <> c);
        Alcotest.(check bool) "trace id in filename" true
          (contains ~needle:"tid-a" (Filename.basename a));
        Alcotest.(check bool) "other trace id in filename" true
          (contains ~needle:"tid-b" (Filename.basename b));
        List.iter Sys.remove [ a; b; c ];
        Obs.Flight.disarm ());
    case "dump cap stops a crash loop from filling the disk" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sram_opt_flightcap_%d" (Unix.getpid ()))
        in
        Obs.Flight.arm ~dir ();
        Obs.Flight.set_max_dumps (Obs.Flight.dumps_written () + 1);
        (match Obs.Flight.dump ~reason:"allowed" () with
        | Some path -> Sys.remove path
        | None -> Alcotest.fail "first dump should write");
        Alcotest.(check bool) "second dump refused" true
          (Obs.Flight.dump ~reason:"refused" () = None);
        Obs.Flight.set_max_dumps 64;
        Obs.Flight.disarm ()) ]

(* ----- Timed spans ----- *)

let telemetry_epoch_tests =
  [ case "spans spanning no reset still record" (fun () ->
        let name = fresh_name "span" in
        let tm = Obs.Histogram.timer name in
        Obs.Control.set_enabled true;
        ignore (Obs.Histogram.span tm (fun () -> 1));
        Obs.Control.set_enabled false;
        let calls =
          List.fold_left
            (fun acc (s : Obs.Histogram.snapshot) ->
              if s.Obs.Histogram.name = name then s.Obs.Histogram.count else acc)
            0 (Obs.Histogram.snapshots ())
        in
        Alcotest.(check int) "recorded once" 1 calls) ]

(* ----- Log ----- *)

let log_tests =
  [ case "of_string parses every level" (fun () ->
        List.iter
          (fun (s, expected) ->
            match Obs.Log.of_string s with
            | Some l ->
              Alcotest.(check string) s (Obs.Log.to_string expected)
                (Obs.Log.to_string l)
            | None -> Alcotest.failf "failed to parse %S" s)
          [ ("quiet", Obs.Log.Quiet); ("ERROR", Obs.Log.Error);
            ("Warn", Obs.Log.Warn); ("info", Obs.Log.Info);
            ("debug", Obs.Log.Debug) ];
        Alcotest.(check bool) "garbage rejected" true
          (Obs.Log.of_string "loud" = None));
    case "messages below the level are suppressed" (fun () ->
        let text =
          with_log_capture Obs.Log.Warn (fun () ->
              Obs.Log.warn ~section:"test" "kept %d" 1;
              Obs.Log.info ~section:"test" "dropped %d" 2;
              Obs.Log.debug ~section:"test" "dropped %d" 3)
        in
        Alcotest.(check bool) "warn kept" true (contains ~needle:"kept 1" text);
        Alcotest.(check bool) "info dropped" false
          (contains ~needle:"dropped" text));
    case "lines carry level and section tags" (fun () ->
        let text =
          with_log_capture Obs.Log.Debug (fun () ->
              Obs.Log.debug ~section:"framework" "cache miss")
        in
        Alcotest.(check bool) "level tag" true
          (contains ~needle:"debug" text);
        Alcotest.(check bool) "section tag" true
          (contains ~needle:"framework: cache miss" text));
    case "lines carry the request trace id while one is set" (fun () ->
        let text =
          with_log_capture Obs.Log.Info (fun () ->
              Obs.Trace.with_context "ctx-log" (fun () ->
                  Obs.Log.info ~section:"serve" "handling");
              Obs.Log.info ~section:"serve" "idle")
        in
        Alcotest.(check bool) "tagged inside the context" true
          (contains ~needle:"handling [trace_id=ctx-log]" text);
        Alcotest.(check bool) "untagged outside" false
          (contains ~needle:"idle [trace_id" text)) ]

(* ----- Progress ----- *)

let progress_tests =
  [ case "counters are inert when inactive" (fun () ->
        Alcotest.(check bool) "inactive" false (Obs.Progress.active ());
        let t0, d0, p0, e0 = Obs.Progress.counts () in
        Obs.Progress.add_total 5;
        Obs.Progress.add_done 3;
        Obs.Progress.add_pruned 2;
        Obs.Progress.add_evals 100;
        Alcotest.(check (list int)) "unchanged" [ t0; d0; p0; e0 ]
          (let t, d, p, e = Obs.Progress.counts () in
           [ t; d; p; e ]));
    case "start/stop lifecycle counts work" (fun () ->
        let devnull = open_out "/dev/null" in
        Obs.Progress.start ~interval:0.01 ~channel:devnull ();
        Alcotest.(check bool) "active" true (Obs.Progress.active ());
        Obs.Progress.add_total 10;
        Obs.Progress.add_done 4;
        Obs.Progress.add_pruned 2;
        Obs.Progress.add_evals 77;
        let t, d, p, e = Obs.Progress.counts () in
        Alcotest.(check (list int)) "counted" [ 10; 4; 2; 77 ] [ t; d; p; e ];
        Unix.sleepf 0.03;
        Obs.Progress.stop ();
        close_out devnull;
        Alcotest.(check bool) "inactive again" false (Obs.Progress.active ())) ]

(* ----- Search journal ----- *)

let some_design =
  { Obs.Search.nr = 64; nc = 64; n_pre = 5; n_wr = 2; vssc = -0.1 }

let search_journal_tests =
  [ case "disarmed journal records nothing" (fun () ->
        Obs.Search.disarm ();
        Obs.Search.arm ();
        Obs.Search.disarm ();
        Alcotest.(check bool) "gate off" false (Obs.Search.enabled ());
        Obs.Search.record_incumbent ~source:"t" ~score:1.0 ~edp:1.0
          ~design:some_design;
        let s = Obs.Search.summary () in
        Alcotest.(check int) "no incumbents" 0 s.Obs.Search.incumbents);
    case "incumbents, chunks and prune sampling are summarized" (fun () ->
        Obs.Search.arm ();
        Obs.Search.record_incumbent ~source:"t" ~score:2.0 ~edp:2.0
          ~design:some_design;
        Obs.Search.record_incumbent ~source:"t" ~score:1.0 ~edp:1.0
          ~design:some_design;
        Obs.Search.record_chunk ~source:"t" ~index:3 ~score:1.0;
        (* As the searches do: journal every prune_sample-th prune and
           fold the whole count in afterwards. *)
        let prunes = (2 * Obs.Search.prune_sample) + 1 in
        for i = 0 to prunes - 1 do
          if i mod Obs.Search.prune_sample = 0 then
            Obs.Search.record_sampled_prune ~source:"t" ~bound:5.0
              ~design:some_design
        done;
        Obs.Search.note_prunes prunes;
        let s = Obs.Search.summary () in
        Obs.Search.disarm ();
        Alcotest.(check int) "incumbents" 2 s.Obs.Search.incumbents;
        Alcotest.(check int) "chunks" 1 s.Obs.Search.chunks;
        Alcotest.(check int)
          "every prune counted"
          ((2 * Obs.Search.prune_sample) + 1)
          s.Obs.Search.prunes;
        (* 1-in-N sampling: 2N+1 calls journal at most 3 prune events. *)
        Alcotest.(check bool) "prunes sampled" true
          (s.Obs.Search.journaled <= 2 + 1 + 3);
        Alcotest.(check (float 0.0)) "best is the last incumbent" 1.0
          s.Obs.Search.best_score;
        Alcotest.(check bool) "improvement times ordered" true
          (s.Obs.Search.first_improvement_s <= s.Obs.Search.last_improvement_s);
        let evs = Obs.Search.events () in
        Alcotest.(check int) "events match journaled" s.Obs.Search.journaled
          (List.length evs);
        let ts = Array.of_list (List.map (fun e -> e.Obs.Search.t) evs) in
        check_increasing "events sorted by time" ts;
        (match
           List.find_opt (fun e -> e.Obs.Search.kind = Obs.Search.Chunk) evs
         with
        | Some e -> Alcotest.(check int) "chunk index" 3 e.Obs.Search.detail
        | None -> Alcotest.fail "chunk event missing"));
    case "buffer cap drops, never grows" (fun () ->
        Obs.Search.arm ();
        for i = 1 to 8198 do
          Obs.Search.record_incumbent ~source:"t" ~score:(float_of_int (-i))
            ~edp:1.0 ~design:some_design
        done;
        let s = Obs.Search.summary () in
        Obs.Search.disarm ();
        Alcotest.(check int) "journaled at cap" 8192 s.Obs.Search.journaled;
        Alcotest.(check int) "rest dropped" 6 s.Obs.Search.dropped;
        Alcotest.(check int) "all counted" 8198 s.Obs.Search.incumbents;
        (* Counters live outside the buffer: best_score tracks the last
           improvement even after the buffer filled. *)
        Alcotest.(check (float 0.0)) "best tracked past the cap" (-8198.0)
          s.Obs.Search.best_score);
    case "rearming resets the journal" (fun () ->
        Obs.Search.arm ();
        Obs.Search.record_incumbent ~source:"t" ~score:1.0 ~edp:1.0
          ~design:some_design;
        Obs.Search.arm ();
        let s = Obs.Search.summary () in
        Obs.Search.disarm ();
        Alcotest.(check int) "fresh buffer" 0 s.Obs.Search.journaled;
        Alcotest.(check int) "fresh counters" 0 s.Obs.Search.incumbents) ]

(* ----- Determinism guard ----- *)

let determinism_tests =
  [ slow_case "observability does not change the chosen design" (fun () ->
        let env =
          Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
        in
        let search jobs =
          with_jobs jobs (fun () ->
              Opt.Exhaustive.search ~space:Opt.Space.reduced ~env
                ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ())
        in
        let fingerprint (r : Opt.Exhaustive.result) =
          let b = r.Opt.Exhaustive.best in
          let g = b.Opt.Exhaustive.geometry in
          Printf.sprintf "%d/%d/%d/%d %.17g %.17g" g.Array_model.Geometry.nr
            g.Array_model.Geometry.nc g.Array_model.Geometry.n_pre
            g.Array_model.Geometry.n_wr
            b.Opt.Exhaustive.assist.Array_model.Components.vssc
            b.Opt.Exhaustive.score
        in
        List.iter
          (fun jobs ->
            let plain = fingerprint (search jobs) in
            let devnull = open_out "/dev/null" in
            Obs.Control.set_enabled true;
            Obs.Trace.start ~detail:`Fine ();
            Obs.Progress.start ~interval:0.01 ~channel:devnull ();
            let instrumented = fingerprint (search jobs) in
            Obs.Progress.stop ();
            Obs.Trace.stop ();
            Obs.Control.set_enabled false;
            close_out devnull;
            Alcotest.(check string)
              (Printf.sprintf "identical design at jobs=%d" jobs)
              plain instrumented)
          [ 1; 2; 4 ]) ]

let () =
  Alcotest.run "obs"
    [ ("clock", clock_tests);
      ("histogram", histogram_tests);
      ("histogram_properties", histogram_property_tests);
      ("window", window_tests);
      ("trace", trace_tests);
      ("context", context_tests);
      ("flight", flight_tests);
      ("telemetry_epoch", telemetry_epoch_tests);
      ("log", log_tests);
      ("progress", progress_tests);
      ("search_journal", search_journal_tests);
      ("determinism", determinism_tests) ]
