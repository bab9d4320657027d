(* The repository benchmark.  One run: one workload against the real
   sram_opt binary, every answer checked against an in-process
   reference; with --trace 1 the same request stream is then replayed
   in-process with spans for the per-layer metrics.  The last line of
   standard output is the JSON result; the lines before it, each
   starting with '#', are the provenance header and a readable table. *)

open Perfbench

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A digest of the program's sources under the current directory, which
   names the code measured even in a checkout that is not a git
   repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune"
           then [ p ]
           else [])
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Proc.read_file p))
    (files "bin" @ files "lib");
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The centre of the latency distribution is its mean, not its median.
   On a shared 2-vCPU KVM guest the same request runs at one of two
   speeds, the host switching between them every few seconds, so a
   run's latencies form two modes whose weights change from run to run.
   The median jumps from one mode to the other; the mean moves with the
   weights only in proportion.  Over ten seeds of 30 s runs the
   median's run-to-run spread was 0.13-0.19 on the one-shot workloads,
   the mean's 0.08-0.13.  The median stays in the table. *)
let end_to_end (o : Loads.outcome) ~failed =
  let n = float_of_int o.Loads.tally.Tally.attempted in
  let lat = o.Loads.latencies in
  let p90 = match Stat.p90 lat with Ok v -> v | Error e -> die 1 "%s" e in
  ( [ ("latency_mean_ms", "ms", 1000.0 *. Stat.mean lat);
      ("latency_p90_ms", "ms", 1000.0 *. p90);
      ("throughput_rps", "1/s", n /. o.Loads.wall_s);
      ("cpu_ms_per_req", "ms", 1000.0 *. o.Loads.cpu_s /. n);
      ("peak_rss_mb", "MB", float_of_int o.Loads.peak_rss_kb /. 1024.0);
      ("setup_s", "s", Stat.median o.Loads.setup_s);
      ("success_rate", "ratio", 1.0 -. Tally.error_rate o.Loads.tally ~failed) ],
    [ ("latency_p50_ms", "ms", 1000.0 *. Stat.median lat) ] )

(* Requests the traced replay covers: enough for steady layer medians,
   few enough that a replay of cold one-shots stays within seconds. *)
let replay_requests = function
  | Gen.Oneshot_cold -> 20
  | Gen.Oneshot_cachedir -> 30
  | Gen.Served_novel -> 400

(* The per-layer metrics, split in two: those measured on every
   workload, which go into the JSON result, and those a workload may not
   exercise (they read 0 there), which only the table shows. *)
let per_layer ctx (o : Loads.outcome) ~(tr : Replay.traced) =
  let spans = tr.Replay.spans in
  let nreq = float_of_int tr.Replay.requests in
  let durations name =
    List.filter_map
      (fun (s : Span.t) -> if s.Span.name = name then Some (s.Span.end_s -. s.Span.start_s) else None)
      spans
    |> Array.of_list
  in
  let med name = match durations name with [||] -> 0.0 | d -> Stat.median d in
  let self = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), t) ->
      let l = Replay.layer_of s.Span.name in
      Hashtbl.replace self l (t +. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
    (Span.self_times spans);
  let self_mean l = Option.value ~default:0.0 (Hashtbl.find_opt self l) /. nreq in
  let request_mean = Stat.mean (durations "request") in
  let covered = List.fold_left (fun acc l -> acc +. self_mean l) 0.0 Replay.layers in
  let untraced_mean = Stat.mean o.Loads.latencies in
  let considered, evaluated =
    List.fold_left
      (fun (c, e) (_, (r : Opt.Exhaustive.result)) ->
        ( c +. float_of_int r.Opt.Exhaustive.considered,
          e +. float_of_int r.Opt.Exhaustive.evaluated ))
      (0.0, 0.0) tr.Replay.results
  in
  (* Layer calls timed on their own, over the first replayed queries. *)
  let sample = List.filteri (fun i _ -> i < 8) (List.map fst tr.Replay.results) in
  let sample_med f = Stat.median (Array.of_list (List.map f sample)) in
  let staged = List.map Replay.stage_and_run_s sample in
  let staged_med f = Stat.median (Array.of_list (List.map f staged)) in
  let decided, run_total =
    List.fold_left
      (fun (d, t) (_, run, c) -> (d +. float_of_int c, t +. run))
      (0.0, 0.0) staged
  in
  let flavors = [ ("hvt", Finfet.Library.Hvt); ("lvt", Finfet.Library.Lvt) ] in
  let cache_add =
    Replay.cache_add_s ~path:"probe.rlog" (List.filteri (fun i _ -> i < 200) tr.Replay.results)
  in
  let reported =
    [ ("process.startup_ms", "ms", 1000.0 *. Loads.startup_s ctx);
      ("wire.request_decode_us", "us", 1e6 *. sample_med Replay.decode_s);
      ("wire.client_us", "us",
       1e6 *. o.Loads.client_cpu_s /. float_of_int o.Loads.tally.Tally.attempted);
      ("memo.hit_us", "us", 1e6 *. sample_med Replay.memo_hit_s);
      ("cache.add_us", "us", 1e6 *. cache_add) ]
    @ List.map
        (fun (n, f) -> ("yield.solve_ms." ^ n, "ms", 1000.0 *. Replay.yield_solve_s f))
        flavors
    @ List.map
        (fun (n, f) ->
          ("periphery.characterize_ms." ^ n, "ms", 1000.0 *. Replay.periphery_characterize_s f))
        flavors
    @ [ ("search.stage_ms", "ms", 1000.0 *. staged_med (fun (s, _, _) -> s));
        ("search.run_ms", "ms", 1000.0 *. staged_med (fun (_, r, _) -> r));
        ("search.decided_per_s", "1/s", ratio decided run_total);
        ("encode.response_us", "us", 1e6 *. med "encode");
        ("replay.request_us", "us", 1e6 *. request_mean);
        ("replay.coverage", "ratio", ratio covered untraced_mean);
        ("replay.spawn_ipc_trace_us", "us", 1e6 *. (untraced_mean -. covered)) ]
  in
  let table_only =
    [ ("wire.queue_wait_us", "us", 1e6 *. o.Loads.queue_wait_p50_s);
      ("memo.optimize_hit_ratio", "ratio",
       ratio (float_of_int tr.Replay.optimize_hits) (float_of_int tr.Replay.optimize_lookups));
      ("cache.open_ms", "ms", 1000.0 *. med "cache.open");
      ("cache.hit_ratio", "ratio",
       ratio (float_of_int tr.Replay.cache_hits)
         (float_of_int (tr.Replay.cache_hits + tr.Replay.cache_misses)));
      ("cache.log_bytes", "B", float_of_int o.Loads.cache_log_bytes);
      ("search.considered", "count", considered /. nreq);
      ("search.evaluated_ratio", "ratio", ratio evaluated considered);
      ("encode.response_bytes", "B", float_of_int tr.Replay.response_bytes /. nreq) ]
    @ List.concat_map
        (fun l ->
          [ ("layer." ^ l ^ ".self_us", "us", 1e6 *. self_mean l);
            ("layer." ^ l ^ ".share", "ratio", ratio (self_mean l) request_mean) ])
        Replay.layers
  in
  (reported, table_only)

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "perfbench: a metric is not a finite number"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          metrics))

(* A run that overruns this is stopped, children included: a run must
   end within 180 s. *)
let run_limit_s = 170

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let bin = ref "" in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --bin SRAM_OPT"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat ", " (List.map fst Gen.workloads));
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: replay in-process with spans, print per-layer metrics");
      ("--bin", Arg.Set_string bin, " the sram_opt binary under test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Gen.of_name !workload with
    | Some w -> w
    | None -> die 2 "unknown workload %S\n%s" !workload usage
  in
  if not (Sys.file_exists !bin) then die 2 "no sram_opt binary at %S" !bin;
  let root = Sys.getcwd () in
  (* [git rev-parse], which sram_opt forks for its version and log
     headers, must not search above the checkout. *)
  Unix.putenv "GIT_CEILING_DIRECTORIES" (Filename.dirname root);
  let bin = if Filename.is_relative !bin then Filename.concat root !bin else !bin in
  let digest = source_digest () in
  let out_dir = Filename.concat root "_perfbench" in
  mkdir_p out_dir;
  (* Sockets, cache directories, flight dumps and logs live in a private
     directory, also every child's working directory, removed on exit. *)
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  Sys.chdir run_dir;
  at_exit (fun () ->
      Proc.kill_all ();
      Sys.chdir root;
      rm_rf run_dir);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> die 3 "run exceeded %d s" run_limit_s));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> die 3 "interrupted")))
    [ Sys.sigint; Sys.sigterm ];
  ignore (Unix.alarm run_limit_s);
  Runtime.Pool.set_default_jobs 1;
  let ctx = Proc.make_ctx ~bin ~run_dir in
  let steal0, total0 = Proc.steal_and_total_ticks () in
  let o =
    try Loads.run ctx w ~seconds:!seconds ~stream:(Gen.stream w ~seed:!seed)
    with Loads.Setup_failed e -> die 1 "set-up failed: %s" e
  in
  let steal1, total1 = Proc.steal_and_total_ticks () in
  (* The replay's first requests, for --trace 1. *)
  let replay_stream = Gen.stream w ~seed:!seed in
  let replayed = if !trace = 1 then Gen.take replay_stream (replay_requests w) else [] in
  let table4 = Replay.table4_checksum () in
  let refs = Replay.references (o.Loads.queries @ replayed) in
  let reference k = Hashtbl.find_opt refs k in
  let failed = Tally.failed o.Loads.tally ~reference in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if table4 <> Gen.table4_checksum then
    problem "Table 4 checksum %s, expected %s" table4 Gen.table4_checksum;
  Option.iter (problem "first failure: %s") o.Loads.tally.Tally.first_error;
  List.iter
    (fun (k, got, want) -> problem "checksum %s for %s, reference %s" got k want)
    (List.filteri (fun i _ -> i < 3) (Tally.mismatches o.Loads.tally ~reference));
  let metrics, table_only =
    if !trace = 0 then end_to_end o ~failed
    else begin
      let kind =
        match w with
        | Gen.Oneshot_cold -> Replay.Oneshot None
        | Gen.Oneshot_cachedir -> Replay.Oneshot (Some Loads.replay_seed_dir)
        | Gen.Served_novel -> Replay.Served
      in
      let tr = Replay.run_traced ~kind ~setup:replay_stream.Gen.setup ~timed:replayed in
      List.iter
        (fun (q, r) ->
          let k = Gen.key q and c = Opt.Exhaustive.checksum [ r ] in
          if reference k <> Some c then problem "replayed checksum %s for %s differs" c k)
        tr.Replay.results;
      Span.write
        (Filename.concat out_dir
           (Printf.sprintf "spans-%s-seed%d.jsonl" (Gen.name w) !seed))
        tr.Replay.spans;
      per_layer ctx o ~tr
    end
  in
  (* Every latency of the timed phase in order, so that a run's spread
     can be studied after the fact. *)
  Out_channel.with_open_text
    (Filename.concat out_dir (Printf.sprintf "latencies-%s-seed%d.txt" (Gen.name w) !seed))
    (fun oc -> Array.iter (fun v -> Printf.fprintf oc "%.9f\n" v) o.Loads.latencies);
  let attempted = o.Loads.tally.Tally.attempted in
  let correct = !problems = [] && failed = 0 in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" (Gen.name w) !seed !seconds !trace;
  Printf.printf "# commit=%s sources=%s nproc=%d ocaml=%s profile=%s\n"
    (Persist.Record_log.git_commit ()) digest (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile;
  Printf.printf "# requests=%d failed=%d timed_phase_s=%.3f table4=%s\n" attempted failed
    o.Loads.wall_s table4;
  Printf.printf "# setups_s=%s\n"
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.4f") o.Loads.setup_s)));
  (* A run in a burst of hypervisor steal reads slow for reasons outside
     the program; the share names such a run. *)
  Printf.printf "# host_steal_share=%.4f over set-up and timed phase\n"
    (ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0)));
  List.iter (fun p -> Printf.printf "# problem: %s\n" p) (List.rev !problems);
  List.iter
    (fun (name, unit, v) -> Printf.printf "# %-32s %14.6g %s\n" name v unit)
    (metrics @ table_only);
  print_endline (result_json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
