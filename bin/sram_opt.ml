(* sram_opt — command-line front end of the SRAM EDP co-optimization
   framework.

   Subcommands:
     optimize     co-optimize one array (capacity x flavor x method)
     sweep        regenerate Table 4 / Figure 7 across capacities
     experiments  run the full paper-reproduction suite
     margins      report cell margins under given assist levels
     assist       sweep one assist technique (Figures 3 / 5)
     anneal       compare simulated annealing against exhaustive search *)

let capacity_conv =
  let parse s =
    let s = String.trim (String.uppercase_ascii s) in
    let bad why =
      Error (`Msg (Printf.sprintf "bad capacity %S (%s; try 4KB, 128B)" s why))
    in
    (* The default space at the default word width: the widest every
       subcommand searches. *)
    let of_bytes b =
      match Opt.Space.check ~w:64 ~capacity_bits:(b * 8) Opt.Space.default with
      | Ok () -> Ok (b * 8)
      | Error (_, why) -> bad why
    in
    try
      if String.length s > 2 && String.sub s (String.length s - 2) 2 = "KB" then
        of_bytes (1024 * int_of_string (String.sub s 0 (String.length s - 2)))
      else if String.length s > 1 && s.[String.length s - 1] = 'B' then
        of_bytes (int_of_string (String.sub s 0 (String.length s - 1)))
      else of_bytes (int_of_string s)
    with Failure _ -> bad "not a number"
  in
  let print ppf bits = Format.fprintf ppf "%s" (Sram_edp.Units.capacity bits) in
  Cmdliner.Arg.conv (parse, print)

let flavor_conv =
  let parse s =
    match Finfet.Library.flavor_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "bad flavor %S (lvt or hvt)" s))
  in
  let print ppf f = Format.fprintf ppf "%s" (Finfet.Library.flavor_to_string f) in
  Cmdliner.Arg.conv (parse, print)

let method_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "M1" -> Ok Opt.Space.M1
    | "M2" -> Ok Opt.Space.M2
    | _ -> Error (`Msg (Printf.sprintf "bad method %S (m1 or m2)" s))
  in
  let print ppf m = Format.fprintf ppf "%s" (Opt.Space.method_name m) in
  Cmdliner.Arg.conv (parse, print)

let accounting_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "strict" | "paper" -> Ok Array_model.Array_eval.Paper_strict
    | "physical" -> Ok Array_model.Array_eval.Physical
    | _ -> Error (`Msg (Printf.sprintf "bad accounting %S (strict or physical)" s))
  in
  let print ppf = function
    | Array_model.Array_eval.Paper_strict -> Format.fprintf ppf "strict"
    | Array_model.Array_eval.Physical -> Format.fprintf ppf "physical"
  in
  Cmdliner.Arg.conv (parse, print)

open Cmdliner

let capacity_info =
  Arg.info [ "capacity"; "c" ] ~docv:"CAP" ~doc:"Array capacity (e.g. 4KB, 128B)."

let capacity_arg = Arg.(value & opt capacity_conv (4096 * 8) & capacity_info)

(* [bank] splits the capacity into banks of at least 512 bits. *)
let bank_capacity_arg =
  let parse s =
    match Arg.conv_parser capacity_conv s with
    | Ok bits when bits < 512 ->
      Error (`Msg (Printf.sprintf "bad capacity %S (below one 64B bank)" s))
    | r -> r
  in
  let at_least_a_bank = Arg.conv (parse, Arg.conv_printer capacity_conv) in
  Arg.(value & opt at_least_a_bank (4096 * 8) & capacity_info)

let flavor_arg =
  Arg.(value & opt flavor_conv Finfet.Library.Hvt
       & info [ "flavor"; "f" ] ~docv:"FLAVOR" ~doc:"SRAM cell device flavor: lvt or hvt.")

let method_arg =
  Arg.(value & opt method_conv Opt.Space.M2
       & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"Voltage-pin policy: m1 or m2.")

(* The richer `--method` grammar of `optimize` and `query`: a pin
   policy, a search strategy, or both ("m1:nsga2") — parsed by
   {!Opt.Strategy.parse_method}, shared verbatim with the serve wire
   protocol. *)
let search_method_conv =
  let parse s =
    match Opt.Strategy.parse_method s with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "bad method %S (m1, m2, exhaustive, local, anneal, nsga2, \
              surrogate, or POLICY:STRATEGY like m1:nsga2)"
             s))
  in
  let print ppf (pin, strategy) =
    Format.fprintf ppf "%s"
      (match (pin, strategy) with
      | Some m, Some st ->
        String.lowercase_ascii (Opt.Space.method_name m)
        ^ ":" ^ Opt.Strategy.name st
      | Some m, None -> String.lowercase_ascii (Opt.Space.method_name m)
      | None, Some st -> Opt.Strategy.name st
      | None, None -> "m2")
  in
  Cmdliner.Arg.conv (parse, print)

let search_method_arg =
  Cmdliner.Arg.(
    value
    & opt search_method_conv (None, None)
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Voltage-pin policy (m1, m2) and/or search strategy \
           (exhaustive, local, anneal, nsga2, surrogate); combine as \
           POLICY:STRATEGY, e.g. m1:nsga2.  Defaults: m2, exhaustive.")

let seed_arg =
  Cmdliner.Arg.(
    value
    & opt int Opt.Strategy.default_seed
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "RNG seed for the stochastic strategies (anneal, nsga2, \
           surrogate).  Same seed, same answer — bit for bit at any \
           --jobs.")

(* An integer in [lo, hi]; anything else is a usage error (exit 124)
   that cmdliner reports under the option's name. *)
let int_within ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some n when hi = max_int -> Error (`Msg (Printf.sprintf "%d is below %d" n lo))
    | Some n -> Error (`Msg (Printf.sprintf "%d is outside %d..%d" n lo hi))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let positive = int_within ~lo:1 ~hi:max_int

(* The bitline column [validate] and [stat] simulate. *)
let rows_arg =
  Arg.(value & opt positive 64 & info [ "rows" ] ~doc:"Cells on the bitline.")

let budget_arg =
  Cmdliner.Arg.(
    value
    & opt (some positive) None
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "Evaluation budget (scan points, at least 1) for the heuristic \
           strategies; default: a few percent of the space.")

let accounting_arg =
  Arg.(value & opt accounting_conv Array_model.Array_eval.Paper_strict
       & info [ "accounting" ] ~docv:"MODE"
           ~doc:"Energy accounting: strict (Table 3 verbatim) or physical.")

let print_optimized (o : Sram_edp.Framework.optimized) =
  let g = Sram_edp.Framework.geometry o in
  let a = Sram_edp.Framework.assist o in
  let m = Sram_edp.Framework.metrics o in
  let open Sram_edp in
  Printf.printf "%s %s\n" (Units.capacity o.Framework.capacity_bits)
    (Framework.config_name o.Framework.config);
  Printf.printf "  organization : %d rows x %d cols (W=%d)\n"
    g.Array_model.Geometry.nr g.Array_model.Geometry.nc g.Array_model.Geometry.w;
  Printf.printf "  fins         : N_pre=%d N_wr=%d\n"
    g.Array_model.Geometry.n_pre g.Array_model.Geometry.n_wr;
  Printf.printf "  assist rails : V_DDC=%s V_SSC=%s V_WL=%s\n"
    (Units.mv a.Array_model.Components.vddc)
    (Units.mv a.Array_model.Components.vssc)
    (Units.mv a.Array_model.Components.vwl);
  Printf.printf "  delay        : %s (read %s, write %s, BL %s)\n"
    (Units.ps m.Array_model.Array_eval.d_array)
    (Units.ps m.Array_model.Array_eval.d_read)
    (Units.ps m.Array_model.Array_eval.d_write)
    (Units.ps m.Array_model.Array_eval.d_bl_read);
  Printf.printf "  energy       : %s (switching %s, leakage %s)\n"
    (Units.fj m.Array_model.Array_eval.e_total)
    (Units.fj m.Array_model.Array_eval.e_switching)
    (Units.fj m.Array_model.Array_eval.e_leakage);
  Printf.printf "  EDP          : %.4g Js\n" m.Array_model.Array_eval.edp;
  Printf.printf
    "  search       : %d candidates evaluated, %d pruned by bound, %d \
     skipped mid-scan\n"
    o.Framework.result.Opt.Exhaustive.evaluated
    o.Framework.result.Opt.Exhaustive.pruned
    o.Framework.result.Opt.Exhaustive.skipped

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

(* The runtime allows at most 128 domains per process, and past that
   [Domain.spawn] fails partway through [Runtime.Pool.create]; 64 stays
   clear of it with the progress ticker's domain on top. *)
let jobs_arg =
  Arg.(value & opt (int_within ~lo:1 ~hi:64) 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the search, 1..64 (1 = sequential; \
                 results are bit-identical for any value).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"After the run, print runtime telemetry: evaluation rates, \
                 latency percentiles, per-phase wall time and memo-cache \
                 hit rates.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event timeline of the run (one track \
                 per worker domain) and write it to $(docv).  Load the file \
                 in Perfetto (ui.perfetto.dev) or chrome://tracing.")

let search_log_arg =
  Arg.(value & opt (some string) None
       & info [ "search-log" ] ~docv:"FILE"
           ~doc:"Record the search's convergence journal (incumbent \
                 updates, chunk completions, sampled prune decisions) and \
                 write it to $(docv) as JSON.  Observation only: winners \
                 are bit-identical with or without the journal.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Live progress ticker on stderr: geometries done / pruned, \
                 evaluation rate and ETA.")

let log_level_conv =
  let parse s =
    match Obs.Log.of_string s with
    | Some level -> Ok level
    | None ->
      Error (`Msg (Printf.sprintf "bad level %S (quiet|error|warn|info|debug)" s))
  in
  let print ppf level = Format.fprintf ppf "%s" (Obs.Log.to_string level) in
  Cmdliner.Arg.conv (parse, print)

let log_level_arg =
  Arg.(value & opt (some log_level_conv) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Diagnostic verbosity: quiet, error, warn, info or debug \
                 (default warn; the SRAM_OPT_LOG environment variable sets \
                 the same thing).")

(* ----- persistence flags ----- *)

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist characterization and optimization results under \
                 $(docv) (append-only record logs, one per cache) so repeat \
                 runs replay instead of recomputing.  The directory is \
                 created if missing.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Journal completed search chunks to $(docv) so an \
                 interrupted sweep can be resumed with $(b,--resume).  \
                 Without $(b,--resume) an existing journal is overwritten.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Replay the $(b,--checkpoint) journal: completed chunks are \
                 skipped and their stored winners folded back in; the final \
                 result is bit-identical to an uninterrupted run at any \
                 $(b,--jobs).")

let checkpoint_every_arg =
  Arg.(value & opt positive 64
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Geometries per checkpoint chunk (default 64).  Smaller \
                 chunks lose less work on a crash but write more records; \
                 a resumed journal must use the same value to match.")

(* ----- run options ----- *)

(* What every searching subcommand takes besides its own arguments, in
   one record built by one term; [search_log] stays [None] where the
   command offers no --search-log. *)
type run_opts = {
  jobs : int;
  stats : bool;
  trace : string option;
  progress : bool;
  log_level : Obs.Log.level option;
  search_log : string option;
  cache_dir : string option;
  checkpoint : string option;
  resume : bool;
  checkpoint_every : int;
}

let run_term ~search_log =
  let make jobs stats trace progress log_level search_log cache_dir checkpoint
      resume checkpoint_every =
    { jobs; stats; trace; progress; log_level; search_log; cache_dir;
      checkpoint; resume; checkpoint_every }
  in
  Term.(const make $ jobs_arg $ stats_arg $ trace_arg $ progress_arg
        $ log_level_arg
        $ (if search_log then search_log_arg else const None)
        $ cache_dir_arg $ checkpoint_arg $ resume_arg $ checkpoint_every_arg)

(* A Ctrl-C / kill during a sweep must not leave half-written logs: the
   handler raises, the exception path below flushes and closes the open
   checkpoint journal and cache logs (compacting where due), and the
   process exits with the conventional 128+signal code — so the very
   next `--resume` replays every completed chunk instead of relying on
   torn-tail recovery. *)
exception Interrupted of int

let install_interrupt () =
  List.map
    (fun s ->
      (s, Sys.signal s (Sys.Signal_handle (fun s -> raise (Interrupted s)))))
    [ Sys.sigint; Sys.sigterm ]

(* Configure the process-wide pool, checkpoint journal, disk cache and
   observability layer before the command body, report/flush afterwards.
   Every search reads those process-wide settings, so the run options
   need no further plumbing. *)
let with_runtime o f =
  (* The output files open before any search runs, so one that cannot
     be written fails the run at once, naming its option. *)
  let open_output option = function
    | None -> None
    | Some path -> (
      try Some (path, open_out path)
      with Sys_error msg ->
        Printf.eprintf "sram_opt: --%s: %s\n" option msg;
        exit 2)
  in
  let trace_out = open_output "trace" o.trace in
  let search_log_out = open_output "search-log" o.search_log in
  Option.iter Obs.Log.set_level o.log_level;
  Obs.Control.set_worker_name "main";
  Runtime.Pool.set_default_jobs o.jobs;
  if o.stats || o.trace <> None then Obs.Control.set_enabled true;
  (* The journal is observation-only: arming it cannot change which
     design a search returns (hooks read state, never write it). *)
  if o.stats || o.search_log <> None then Obs.Search.arm ();
  if o.trace <> None then Obs.Trace.start ();
  if o.progress then Obs.Progress.start ();
  Persist.Faults.load_env ();
  Persist.Cache.set_dir o.cache_dir;
  (match o.checkpoint with
   | None -> ()
   | Some path ->
     (match
        Persist.Checkpoint.create ~path ~resume:o.resume
          ~checkpoint_every:o.checkpoint_every ()
      with
      | Ok j -> Persist.Checkpoint.set_default (Some j)
      | Error msg ->
        Printf.eprintf "sram_opt: --checkpoint: %s\n" msg;
        exit 2));
  let handlers = install_interrupt () in
  (* Every way out restores the signals, stops the ticker domain (so an
     exception reaches the user on a clean line and the process can
     exit) and closes the journal and cache logs: the journal's
     completed chunks are what --resume replays. *)
  let release () =
    List.iter (fun (s, h) -> Sys.set_signal s h) handlers;
    if o.progress then Obs.Progress.stop ();
    (match Persist.Checkpoint.default () with
     | Some j ->
       (try Persist.Checkpoint.close j with _ -> ());
       Persist.Checkpoint.set_default None
     | None -> ());
    Persist.Cache.set_dir None
  in
  let finish () =
    release ();
    (match search_log_out with
     | None -> ()
     | Some (path, oc) ->
       let json = Sram_edp.Json_out.search_journal_json () in
       let s = Obs.Search.summary () in
       output_string oc (Persist.Json.to_string_pretty json);
       output_char oc '\n';
       close_out oc;
       Printf.eprintf "wrote search journal (%d events) to %s\n%!"
         s.Obs.Search.journaled path);
    match trace_out with
    | None -> ()
    | Some (path, oc) ->
      Obs.Trace.stop ();
      let n = Obs.Trace.write oc in
      close_out oc;
      Printf.eprintf "wrote %d trace events to %s\n%!" n path
  in
  match f () with
  | result ->
    finish ();
    if o.stats then begin
      Runtime.Telemetry.print_report ();
      Obs.Histogram.print_report ~counters:(Runtime.Telemetry.snapshot ()) ();
      Obs.Search.print_report ();
      Runtime.Memo.print_stats ()
    end;
    result
  | exception Interrupted signal ->
    release ();
    Printf.eprintf
      "sram_opt: interrupted — checkpoint and cache logs flushed; \
       rerun with --resume to continue\n%!";
    exit (if signal = Sys.sigterm then 143 else 130)
  | exception e ->
    release ();
    raise e

let optimize_cmd =
  let run capacity flavor (pin, strategy) accounting seed budget json opts =
    let method_ = Option.value ~default:Opt.Space.M2 pin in
    let strategy = Option.value ~default:Opt.Strategy.Exhaustive strategy in
    with_runtime opts @@ fun () ->
    let o =
      Sram_edp.Framework.optimize ~accounting ~strategy ~rng_seed:seed ?budget
        ~capacity_bits:capacity
        ~config:{ Sram_edp.Framework.flavor; method_ } ()
    in
    if json then begin
      let g = Sram_edp.Framework.geometry o in
      let a = Sram_edp.Framework.assist o in
      print_endline
        (Persist.Json.to_string_pretty
           (Persist.Json.Obj
              [ ("capacity_bits", Persist.Json.Int capacity);
                ("config",
                 Persist.Json.String
                   (Sram_edp.Framework.config_name o.Sram_edp.Framework.config));
                ("strategy", Persist.Json.String (Opt.Strategy.name strategy));
                ("nr", Persist.Json.Int g.Array_model.Geometry.nr);
                ("nc", Persist.Json.Int g.Array_model.Geometry.nc);
                ("n_pre", Persist.Json.Int g.Array_model.Geometry.n_pre);
                ("n_wr", Persist.Json.Int g.Array_model.Geometry.n_wr);
                ("vddc_v", Persist.Json.Float a.Array_model.Components.vddc);
                ("vssc_v", Persist.Json.Float a.Array_model.Components.vssc);
                ("vwl_v", Persist.Json.Float a.Array_model.Components.vwl);
                ("metrics", Sram_edp.Json_out.of_metrics (Sram_edp.Framework.metrics o));
                (* Same digest the serve protocol returns, so a one-shot
                   run and a server answer compare with string equality. *)
                ("checksum",
                 Persist.Json.String
                   (Opt.Exhaustive.checksum [ o.Sram_edp.Framework.result ])) ]))
    end
    else print_optimized o
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Co-optimize one SRAM array for minimum EDP")
    Term.(const run $ capacity_arg $ flavor_arg $ search_method_arg
          $ accounting_arg $ seed_arg $ budget_arg $ json_flag
          $ run_term ~search_log:true)

let sweep_cmd =
  let run json opts =
    with_runtime opts @@ fun () ->
    if json then begin
      (* Evaluate the sweep before snapshotting the telemetry: list and
         [@] operands evaluate right-to-left in OCaml. *)
      let designs = Sram_edp.Json_out.design_table_json () in
      let headline =
        Sram_edp.Json_out.of_headline (Sram_edp.Framework.headline ())
      in
      let fields = [ ("designs", designs); ("headline", headline) ] in
      let fields =
        if opts.stats then
          fields @ [ ("runtime", Sram_edp.Json_out.runtime_stats_json ()) ]
        else fields
      in
      print_endline
        (Persist.Json.to_string_pretty (Persist.Json.Obj fields))
    end
    else begin
      Sram_edp.Experiments.print_table4 ();
      Sram_edp.Experiments.print_fig7 ();
      Sram_edp.Experiments.print_fig7d ();
      Sram_edp.Experiments.print_headline ()
    end
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Regenerate Table 4 and Figure 7 across capacities")
    Term.(const run $ json_flag $ run_term ~search_log:true)

let experiments_cmd =
  let run opts = with_runtime opts Sram_edp.Experiments.run_all in
  Cmd.v (Cmd.info "experiments" ~doc:"Run the full paper-reproduction suite")
    Term.(const run $ run_term ~search_log:false)

let margins_cmd =
  let run flavor vddc vssc vwl =
    let lib = Lazy.force Finfet.Library.default in
    let cell =
      Finfet.Variation.nominal_cell
        ~nfet:(Finfet.Library.nfet lib flavor)
        ~pfet:(Finfet.Library.pfet lib flavor)
    in
    let vdd = Finfet.Tech.vdd_nominal in
    let open Sram_edp in
    Printf.printf "6T-%s margins (delta = %s):\n"
      (Finfet.Library.flavor_to_string flavor) (Units.mv Finfet.Tech.min_margin);
    Printf.printf "  HSNM @ nominal : %s\n"
      (Units.mv (Sram_cell.Margins.hold_snm ~cell vdd));
    Printf.printf "  RSNM           : %s (V_DDC=%s, V_SSC=%s)\n"
      (Units.mv
         (Sram_cell.Margins.read_snm ~cell (Sram_cell.Sram6t.read ~vddc ~vssc ())))
      (Units.mv vddc) (Units.mv vssc);
    Printf.printf "  WM             : %s (V_WL=%s)\n"
      (Units.mv
         (Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ())))
      (Units.mv vwl);
    Printf.printf "  leakage        : %s\n"
      (Units.nw (Sram_cell.Leakage.power ~cell ()))
  in
  let vddc = Arg.(value & opt float 0.450 & info [ "vddc" ] ~doc:"Cell supply during read (V).") in
  let vssc = Arg.(value & opt float 0.0 & info [ "vssc" ] ~doc:"Cell ground during read (V).") in
  let vwl = Arg.(value & opt float 0.450 & info [ "vwl" ] ~doc:"Write wordline level (V).") in
  Cmd.v (Cmd.info "margins" ~doc:"Report 6T cell margins under assist levels")
    Term.(const run $ flavor_arg $ vddc $ vssc $ vwl)

let assist_cmd =
  let technique_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "boost" -> Ok (`Read Assist.Technique.Vdd_boost)
      | "neggnd" -> Ok (`Read Assist.Technique.Negative_gnd)
      | "wlud" -> Ok (`Read Assist.Technique.Wl_underdrive)
      | "wlod" -> Ok (`Write Assist.Technique.Wl_overdrive)
      | "negbl" -> Ok (`Write Assist.Technique.Negative_bl)
      | _ ->
        Error (`Msg (Printf.sprintf "bad technique %S (boost|neggnd|wlud|wlod|negbl)" s))
    in
    let print ppf = function
      | `Read t -> Format.fprintf ppf "%s" (Assist.Technique.read_assist_name t)
      | `Write t -> Format.fprintf ppf "%s" (Assist.Technique.write_assist_name t)
    in
    Arg.conv (parse, print)
  in
  let technique_arg =
    Arg.(required & pos 0 (some technique_conv) None
         & info [] ~docv:"TECHNIQUE" ~doc:"boost, neggnd, wlud, wlod or negbl.")
  in
  let run technique =
    match technique with
    | `Read t ->
      let sweep = Sram_edp.Experiments.fig3_read_assist t in
      Array.iter
        (fun (p : Assist.Sweep.read_point) ->
          Printf.printf "%s: RSNM=%s I_read=%s BL=%s\n"
            (Sram_edp.Units.mv p.Assist.Sweep.voltage)
            (Sram_edp.Units.mv p.Assist.Sweep.rsnm)
            (Sram_edp.Units.ua p.Assist.Sweep.read_current)
            (Sram_edp.Units.ps p.Assist.Sweep.bl_delay))
        sweep.Sram_edp.Experiments.points
    | `Write t ->
      let sweep = Sram_edp.Experiments.fig5_write_assist t in
      Array.iter
        (fun (p : Assist.Sweep.write_point) ->
          Printf.printf "%s: WM=%s write delay=%s\n"
            (Sram_edp.Units.mv p.Assist.Sweep.voltage)
            (Sram_edp.Units.mv p.Assist.Sweep.wm)
            (Sram_edp.Units.ps p.Assist.Sweep.cell_write_delay))
        sweep.Sram_edp.Experiments.points
  in
  Cmd.v (Cmd.info "assist" ~doc:"Sweep one assist technique on the 6T-HVT cell")
    Term.(const run $ technique_arg)

let anneal_cmd =
  let run capacity flavor method_ seed json opts =
    with_runtime opts @@ fun () ->
    let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
    let exhaustive =
      Opt.Exhaustive.search ~env ~capacity_bits:capacity ~method_ ()
    in
    let annealed =
      Opt.Anneal.search ~seed ~env ~capacity_bits:capacity ~method_ ()
    in
    let score (r : Opt.Exhaustive.result) = r.Opt.Exhaustive.best.Opt.Exhaustive.score in
    let gap = 100.0 *. ((score annealed /. score exhaustive) -. 1.0) in
    if json then
      (* result_to_json carries [considered]; for a heuristic search
         that equals [evaluated] (it decides exactly what it tries). *)
      print_endline
        (Persist.Json.to_string
           (Persist.Json.Obj
              [ ("seed", Persist.Json.Int seed);
                ("gap_pct", Persist.Json.Float gap);
                ("exhaustive", Opt.Exhaustive.result_to_json exhaustive);
                ("annealed", Opt.Exhaustive.result_to_json annealed) ]))
    else begin
      Printf.printf "exhaustive: EDP=%.4g Js in %d evaluations\n"
        (score exhaustive) exhaustive.Opt.Exhaustive.evaluated;
      Printf.printf "annealed  : EDP=%.4g Js in %d evaluations (gap %+.2f%%)\n"
        (score annealed) annealed.Opt.Exhaustive.evaluated gap
    end
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Annealing RNG seed.") in
  Cmd.v (Cmd.info "anneal" ~doc:"Compare simulated annealing against exhaustive search")
    Term.(const run $ capacity_arg $ flavor_arg $ method_arg $ seed $ json_flag
          $ run_term ~search_log:true)

let explain_cmd =
  let run capacity flavor method_ accounting no_pareto json opts =
    with_runtime opts @@ fun () ->
    let e =
      match
        Sram_edp.Framework.explain ~accounting ~pareto:(not no_pareto)
          ~capacity_bits:capacity ~config:{ Sram_edp.Framework.flavor; method_ } ()
      with
      | Ok e -> e
      | Error msg ->
        Printf.eprintf "sram_opt explain: %s — refusing to print a breakdown that lies\n"
          msg;
        exit 1
    in
    let o = e.Sram_edp.Framework.optimized and at = e.Sram_edp.Framework.attribution in
    let sens = e.Sram_edp.Framework.sensitivity and pareto = e.Sram_edp.Framework.pareto in
    if json then begin
      let fields =
        [ ("capacity_bits", Persist.Json.Int capacity);
          ("config",
           Persist.Json.String
             (Sram_edp.Framework.config_name o.Sram_edp.Framework.config));
          ("attribution", Sram_edp.Json_out.of_attribution at);
          ("sensitivity", Sram_edp.Json_out.of_sensitivity sens) ]
        @
        match pareto with
        | None -> []
        | Some p -> [ ("pareto", Sram_edp.Json_out.of_pareto p) ]
      in
      print_endline
        (Persist.Json.to_string_pretty (Persist.Json.Obj fields))
    end
    else begin
      let open Sram_edp in
      let m = at.Array_model.Array_eval.at_metrics in
      print_optimized o;
      print_newline ();
      (* E_total shares: Equation (5) weights applied per component. *)
      let e_total = m.Array_model.Array_eval.e_total in
      let energy = Report.create ~columns:[ "component"; "energy"; "share" ] in
      List.iter
        (fun (name, e) ->
          Report.add_row energy
            [ name; Units.fj e; Units.percent (e /. e_total) ])
        (Opt.Explain.energy_rollup at);
      Report.add_separator energy;
      Report.add_row energy [ "E_total"; Units.fj e_total; Units.percent 1.0 ];
      Report.print ~title:"Energy attribution (per access)" energy;
      print_newline ();
      let delay = Report.create ~columns:[ "path"; "stage"; "delay" ] in
      let stages path l =
        List.iter
          (fun (name, d) -> Report.add_row delay [ path; name; Units.ps d ])
          l
      in
      stages "read/row" at.Array_model.Array_eval.at_read_row;
      stages "read/col" at.Array_model.Array_eval.at_read_col;
      stages "read/tail" at.Array_model.Array_eval.at_read_tail;
      Report.add_separator delay;
      stages "write/row" at.Array_model.Array_eval.at_write_row;
      stages "write/col" at.Array_model.Array_eval.at_write_col;
      stages "write/tail" at.Array_model.Array_eval.at_write_tail;
      Report.print ~title:"Delay attribution (critical paths)" delay;
      let refold = Array_model.Array_eval.refold in
      Printf.printf
        "  read : max(row %s, col %s) + tail -> %s\n"
        (Units.ps (refold at.Array_model.Array_eval.at_read_row))
        (Units.ps (refold at.Array_model.Array_eval.at_read_col))
        (Units.ps m.Array_model.Array_eval.d_read);
      Printf.printf
        "  write: max(row %s, col %s) + tail -> %s\n"
        (Units.ps (refold at.Array_model.Array_eval.at_write_row))
        (Units.ps (refold at.Array_model.Array_eval.at_write_col))
        (Units.ps m.Array_model.Array_eval.d_write);
      Printf.printf "  cycle: max(read, write) = %s\n"
        (Units.ps m.Array_model.Array_eval.d_array);
      print_newline ();
      let fmt_neighbor = function
        | None -> "-"
        | Some n ->
          Printf.sprintf "%+.2f%% @ %.3g"
            (100.0 *. n.Opt.Explain.nb_delta)
            n.Opt.Explain.nb_value
      in
      let sensitivity =
        Report.create ~columns:[ "axis"; "value"; "one step down"; "one step up" ]
      in
      List.iter
        (fun (ax : Opt.Explain.axis) ->
          Report.add_row sensitivity
            [ ax.Opt.Explain.ax_name;
              Printf.sprintf "%.3g" ax.Opt.Explain.ax_value;
              fmt_neighbor ax.Opt.Explain.ax_minus;
              fmt_neighbor ax.Opt.Explain.ax_plus ])
        sens;
      Report.print
        ~title:"Objective sensitivity (finite differences on the search grid)"
        sensitivity;
      match pareto with
      | None -> ()
      | Some p ->
        print_newline ();
        let front = Report.create
            ~columns:[ "organization"; "N_pre"; "N_wr"; "V_SSC"; "delay";
                       "energy"; "EDP"; "" ]
        in
        let is_knee c =
          match p.Opt.Explain.pv_knee with
          | Some k -> k.Opt.Exhaustive.score = c.Opt.Exhaustive.score
          | None -> false
        in
        List.iter
          (fun (c : Opt.Exhaustive.candidate) ->
            let g = c.Opt.Exhaustive.geometry in
            let cm = c.Opt.Exhaustive.metrics in
            Report.add_row front
              [ Printf.sprintf "%dx%d" g.Array_model.Geometry.nr
                  g.Array_model.Geometry.nc;
                string_of_int g.Array_model.Geometry.n_pre;
                string_of_int g.Array_model.Geometry.n_wr;
                Units.mv c.Opt.Exhaustive.assist.Array_model.Components.vssc;
                Units.ps cm.Array_model.Array_eval.d_array;
                Units.fj cm.Array_model.Array_eval.e_total;
                Printf.sprintf "%.4g Js" cm.Array_model.Array_eval.edp;
                (if is_knee c then "<-- knee" else "") ])
          p.Opt.Explain.pv_front;
        Report.print ~title:"Delay-energy Pareto front" front;
        Printf.printf "  provenance: %s; %d candidates, %d dominated\n"
          p.Opt.Explain.pv_source p.Opt.Explain.pv_evaluated
          p.Opt.Explain.pv_dominated
    end
  in
  let no_pareto =
    Arg.(value & flag
         & info [ "no-pareto" ]
             ~doc:"Skip the keep-all re-enumeration that derives the \
                   delay-energy front (the breakdown and sensitivity \
                   sections need only a handful of evaluations).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Attribute the winner's EDP to components and stages, with \
             per-axis sensitivity and Pareto provenance")
    Term.(const run $ capacity_arg $ flavor_arg $ method_arg $ accounting_arg
          $ no_pareto $ json_flag $ run_term ~search_log:true)

let bank_cmd =
  let run capacity flavor method_ max_banks opts =
    with_runtime opts @@ fun () ->
    let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
    let best, all =
      Cache_model.Banked.optimize ~space:Opt.Space.reduced ~max_banks ~env
        ~capacity_bits:capacity ~method_ ()
    in
    let table =
      Sram_edp.Report.create
        ~columns:[ "banks"; "bank org"; "H-tree"; "total delay"; "energy"; "EDP"; "" ]
    in
    List.iter
      (fun (d : Cache_model.Banked.bank_design) ->
        let g = d.Cache_model.Banked.per_bank.Opt.Exhaustive.best.Opt.Exhaustive.geometry in
        Sram_edp.Report.add_row table
          [ string_of_int d.Cache_model.Banked.banks;
            Printf.sprintf "%dx%d" g.Array_model.Geometry.nr g.Array_model.Geometry.nc;
            Sram_edp.Units.ps d.Cache_model.Banked.d_htree;
            Sram_edp.Units.ps d.Cache_model.Banked.d_total;
            Sram_edp.Units.fj d.Cache_model.Banked.e_total;
            Printf.sprintf "%.3g Js" d.Cache_model.Banked.edp;
            (if d.Cache_model.Banked.banks = best.Cache_model.Banked.banks
             then "<-- best" else "") ])
      all;
    Sram_edp.Report.print
      ~title:
        (Printf.sprintf "Bank-count sweep, %s %s"
           (Sram_edp.Units.capacity capacity)
           (Finfet.Library.flavor_to_string flavor))
      table
  in
  let max_banks =
    Arg.(value & opt positive 16
         & info [ "max-banks" ] ~doc:"Largest bank count tried.")
  in
  Cmd.v
    (Cmd.info "bank"
       ~doc:"Co-optimize the bank count on top of the array-level search")
    Term.(const run $ bank_capacity_arg $ flavor_arg $ method_arg $ max_banks
          $ run_term ~search_log:false)

let retention_cmd =
  let run flavor =
    let lib = Lazy.force Finfet.Library.default in
    let cell =
      Finfet.Variation.nominal_cell
        ~nfet:(Finfet.Library.nfet lib flavor)
        ~pfet:(Finfet.Library.pfet lib flavor)
    in
    let s = Sram_cell.Retention.standby ~cell () in
    Printf.printf "6T-%s standby analysis:\n" (Finfet.Library.flavor_to_string flavor);
    Printf.printf "  retention voltage : %s (HSNM rule)\n"
      (Sram_edp.Units.mv s.Sram_cell.Retention.v_retention);
    Printf.printf "  drowsy rail       : %s (+50 mV guard)\n"
      (Sram_edp.Units.mv s.Sram_cell.Retention.v_standby);
    Printf.printf "  leakage           : %s -> %s (%.1f%% saved)\n"
      (Sram_edp.Units.nw s.Sram_cell.Retention.p_active)
      (Sram_edp.Units.nw s.Sram_cell.Retention.p_standby)
      (100.0 *. s.Sram_cell.Retention.savings)
  in
  Cmd.v
    (Cmd.info "retention" ~doc:"Data-retention voltage and drowsy-standby savings")
    Term.(const run $ flavor_arg)

let corners_cmd =
  let run flavor vddc vwl =
    let lib = Lazy.force Finfet.Library.default in
    let nfet = Finfet.Library.nfet lib flavor in
    let pfet = Finfet.Library.pfet lib flavor in
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
                 (Sram_cell.Sram6t.read ~vddc ()));
            Sram_edp.Units.mv
              (Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ()));
            Sram_edp.Units.nw (Sram_cell.Leakage.power ~cell ()) ])
      Finfet.Corners.all;
    Sram_edp.Report.print
      ~title:
        (Printf.sprintf "Process corners, 6T-%s (V_DDC=%s, V_WL=%s)"
           (Finfet.Library.flavor_to_string flavor) (Sram_edp.Units.mv vddc)
           (Sram_edp.Units.mv vwl))
      table
  in
  let vddc = Arg.(value & opt float 0.55 & info [ "vddc" ] ~doc:"Read-assist supply (V).") in
  let vwl = Arg.(value & opt float 0.55 & info [ "vwl" ] ~doc:"Write WL level (V).") in
  Cmd.v (Cmd.info "corners" ~doc:"Five-corner margin and leakage signoff")
    Term.(const run $ flavor_arg $ vddc $ vwl)

let compare8t_cmd =
  let run capacity = Sram_edp.Eight_t.print_comparison ~capacity_bits:capacity in
  Cmd.v
    (Cmd.info "compare8t"
       ~doc:"Compare the 8T-LVT alternative against the 6T proposals")
    Term.(const run $ capacity_arg)

let workload_cmd =
  let run capacity length =
    let rows = Workload.Sensitivity.study ~length ~capacity_bits:capacity () in
    let table =
      Sram_edp.Report.create
        ~columns:[ "workload"; "alpha"; "beta"; "V_SSC"; "EDP"; "HVT advantage" ]
    in
    List.iter
      (fun (r : Workload.Sensitivity.study_row) ->
        Sram_edp.Report.add_row table
          [ r.Workload.Sensitivity.name;
            Printf.sprintf "%.2f" r.Workload.Sensitivity.alpha;
            Printf.sprintf "%.2f" r.Workload.Sensitivity.beta;
            Sram_edp.Units.mv r.Workload.Sensitivity.vssc;
            Printf.sprintf "%.3g Js" r.Workload.Sensitivity.edp;
            Sram_edp.Units.percent (-.r.Workload.Sensitivity.hvt_advantage) ])
      rows;
    Sram_edp.Report.print
      ~title:
        (Printf.sprintf "Workload sensitivity at %s" (Sram_edp.Units.capacity capacity))
      table
  in
  let length =
    Arg.(value & opt positive 20_000
         & info [ "length" ] ~doc:"Trace length in cycles.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Co-optimize under trace-derived (alpha, beta) workload parameters")
    Term.(const run $ capacity_arg $ length)

let validate_cmd =
  let run rows vssc =
    let lib = Lazy.force Finfet.Library.default in
    let cell =
      Finfet.Variation.nominal_cell
        ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
        ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
    in
    let config = { Sram_cell.Column.default_config with Sram_cell.Column.nr = rows } in
    let read =
      Sram_cell.Column.validate ~cell config (Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
    in
    let write = Sram_cell.Column.validate_write ~cell config in
    Printf.printf "read : analytic=%s simulated=%s error=%s\n"
      (Sram_edp.Units.ps read.Sram_cell.Column.analytic)
      (Sram_edp.Units.ps read.Sram_cell.Column.simulated)
      (Sram_edp.Units.percent read.Sram_cell.Column.relative_error);
    Printf.printf "write: analytic=%s simulated=%s error=%s\n"
      (Sram_edp.Units.ps write.Sram_cell.Column.analytic)
      (Sram_edp.Units.ps write.Sram_cell.Column.simulated)
      (Sram_edp.Units.percent write.Sram_cell.Column.relative_error)
  in
  let vssc = Arg.(value & opt float 0.0 & info [ "vssc" ] ~doc:"Negative-Gnd level (V).") in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate Equation (1) against distributed-RC column transients")
    Term.(const run $ rows_arg $ vssc)

let stat_cmd =
  let run flavor rows vssc k =
    let lib = Lazy.force Finfet.Library.default in
    let cell =
      Finfet.Variation.nominal_cell
        ~nfet:(Finfet.Library.nfet lib flavor)
        ~pfet:(Finfet.Library.pfet lib flavor)
    in
    let g =
      Sram_cell.Stat_timing.bl_delay_guardband ~k ~cell
        ~column:{ Sram_cell.Column.default_config with Sram_cell.Column.nr = rows }
        ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
        ()
    in
    Printf.printf
      "%d-row column, V_SSC=%s: nominal %s, mean %s, %.0f-sigma slow cell %s (derate %.2fx)\n"
      rows (Sram_edp.Units.mv vssc)
      (Sram_edp.Units.ps g.Sram_cell.Stat_timing.nominal_delay)
      (Sram_edp.Units.ps g.Sram_cell.Stat_timing.mean_delay)
      k
      (Sram_edp.Units.ps g.Sram_cell.Stat_timing.k_sigma_delay)
      g.Sram_cell.Stat_timing.derate
  in
  let vssc = Arg.(value & opt float 0.0 & info [ "vssc" ] ~doc:"Negative-Gnd level (V).") in
  let k = Arg.(value & opt float 3.0 & info [ "k" ] ~doc:"Sigma multiplier.") in
  Cmd.v
    (Cmd.info "stat" ~doc:"Statistical sense-timing guardband under variation")
    Term.(const run $ flavor_arg $ rows_arg $ vssc $ k)

let datasheet_cmd =
  let run capacity flavor method_ =
    let o =
      Sram_edp.Framework.optimize ~capacity_bits:capacity
        ~config:{ Sram_edp.Framework.flavor; method_ } ()
    in
    Sram_edp.Datasheet.print o
  in
  Cmd.v
    (Cmd.info "datasheet"
       ~doc:"Full datasheet of the optimized design: margins, timing and energy breakdowns")
    Term.(const run $ capacity_arg $ flavor_arg $ method_arg)

let simulate_cmd =
  let run path op_nodes tran tran_node =
    let lib = Lazy.force Finfet.Library.default in
    let text =
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
    in
    match Spice.Deck.parse ~lib text with
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
    | Ok (netlist, names) ->
      let lookup name =
        match Spice.Deck.node names name with
        | Some n -> n
        | None ->
          Printf.eprintf "unknown node %S\n" name;
          exit 1
      in
      (match tran with
       | None ->
         let s = Spice.Dc.operating_point netlist in
         if not s.Spice.Dc.converged then
           Obs.Log.warn ~section:"spice"
             "operating point did not fully converge";
         let nodes =
           match op_nodes with [] -> List.map fst names | some -> some
         in
         List.iter
           (fun name ->
             Printf.printf "V(%s) = %.6g V\n" name
               (Spice.Dc.node_voltage s (lookup name)))
           nodes
       | Some t_stop ->
         let trace = Spice.Transient.run ~t_stop netlist in
         let name = match tran_node with Some n -> n | None -> fst (List.hd names) in
         let node = lookup name in
         let samples = Spice.Transient.node_trace trace node in
         let times = trace.Spice.Transient.times in
         let step = max 1 (Array.length times / 20) in
         Printf.printf "transient of V(%s) over %g s:\n" name t_stop;
         Array.iteri
           (fun i t ->
             if i mod step = 0 then Printf.printf "  %.4g s  %.6g V\n" t samples.(i))
           times)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc:"SPICE deck file.")
  in
  let op_nodes =
    Arg.(value & opt_all string [] & info [ "node" ] ~doc:"Node(s) to report (repeatable).")
  in
  let tran =
    Arg.(value & opt (some float) None
         & info [ "tran" ] ~docv:"SECONDS" ~doc:"Run a transient instead of the operating point.")
  in
  let tran_node =
    Arg.(value & opt (some string) None
         & info [ "watch" ] ~doc:"Node to trace during --tran.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Parse a SPICE deck and run an operating point or transient")
    Term.(const run $ path $ op_nodes $ tran $ tran_node)

let export_cmd =
  let run dir =
    let written = Sram_edp.Export.write_all ~dir (Sram_edp.Export.all_files ()) in
    List.iter (fun path -> Printf.printf "wrote %s\n" path) written
  in
  let dir =
    Arg.(value & opt string "results" & info [ "dir"; "o" ] ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write every figure's dataset as CSV files")
    Term.(const run $ dir)

(* ----- serving mode ----- *)

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
        Ok ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Error (`Msg (Printf.sprintf "bad port in %S" s)))
    | None -> Error (`Msg (Printf.sprintf "bad address %S (try HOST:PORT)" s))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let socket_arg =
  Arg.(value & opt string "sram_opt.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (empty string disables; \
                 the file is created at startup and unlinked on exit).")

let tcp_arg =
  Arg.(value & opt (some tcp_conv) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Also (or instead) listen on a TCP address, \
                 e.g. 127.0.0.1:7070.")

let deadline_ms_arg =
  Arg.(value & opt float 0.0
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request budget, measured from admission \
                 (0 = unlimited).  A request's own deadline_ms field \
                 overrides this.  An expired request is answered with a \
                 'deadline' error; one that expires mid-search is \
                 cancelled cleanly.")

let serve_cmd =
  let run socket tcp max_queue deadline_ms flight_dir slow_ms opts =
    with_runtime opts @@ fun () ->
    let socket_path = if socket = "" then None else Some socket in
    let config =
      { Serve.Server.default_config with
        Serve.Server.socket_path;
        tcp;
        max_queue;
        default_deadline_ms = (if deadline_ms > 0.0 then Some deadline_ms else None);
        flight_dir = (if flight_dir = "" then None else Some flight_dir);
        slow_ms = (if slow_ms > 0.0 then Some slow_ms else None) }
    in
    Printf.printf "sram_opt serve: pid %d, jobs %d, listening on %s%s\n%!"
      (Unix.getpid ()) opts.jobs
      (match socket_path with Some p -> p | None -> "")
      (match tcp with
       | Some (h, p) ->
         (if socket_path = None then "" else " and ") ^ Printf.sprintf "%s:%d" h p
       | None -> "");
    let s = Serve.Server.run config in
    Printf.printf
      "sram_opt serve: drained — %d connections, %d served, %d errors\n%!"
      s.Serve.Server.connections s.Serve.Server.served s.Serve.Server.errors
  in
  let max_queue =
    Arg.(value & opt positive 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admission bound: requests beyond $(docv) pending are \
                   answered 'busy' immediately instead of queueing \
                   unbounded latency.")
  in
  let flight_dir_arg =
    Arg.(value & opt string ""
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Directory for flight-recorder dumps (Perfetto-loadable \
                   JSON written on deadline expiry, internal errors, slow \
                   requests and SIGQUIT).  Defaults to the system temp \
                   directory.")
  in
  let slow_ms_arg =
    Arg.(value & opt float 0.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-request threshold: a request whose end-to-end time \
                   exceeds $(docv) is logged at warn and its span tree \
                   dumped to the flight directory (0 = disabled).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the co-optimizer as a long-lived daemon answering \
             optimization queries over a socket"
       ~man:
         [ `S Manpage.s_description;
           `P "Accepts length-prefixed compact-JSON requests (see \
               DESIGN.md \xC2\xA79) over a Unix-domain and/or TCP socket.  All \
               requests share one warm in-memory memo and the optional \
               $(b,--cache-dir) disk tier, so a repeated query is \
               answered in microseconds.  SIGINT/SIGTERM drain \
               gracefully: queued requests are answered, then the \
               listeners close." ])
    Term.(const run $ socket_arg $ tcp_arg $ max_queue $ deadline_ms_arg
          $ flight_dir_arg $ slow_ms_arg $ run_term ~search_log:false)

let query_cmd =
  let endpoint_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "optimize" -> Ok `Optimize
      | "explain" -> Ok `Explain
      | "ping" -> Ok `Ping
      | "stats" -> Ok `Stats
      | "metrics" -> Ok `Metrics
      | "shutdown" -> Ok `Shutdown
      | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "bad endpoint %S (optimize|explain|ping|stats|metrics|shutdown)"
                s))
    in
    let print ppf e =
      Format.fprintf ppf "%s"
        (match e with
         | `Optimize -> "optimize" | `Explain -> "explain" | `Ping -> "ping"
         | `Stats -> "stats" | `Metrics -> "metrics"
         | `Shutdown -> "shutdown")
    in
    Arg.conv (parse, print)
  in
  let objective_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "edp" -> Ok Opt.Objective.Energy_delay_product
      | "ed2" -> Ok Opt.Objective.Energy_delay_squared
      | "energy" -> Ok Opt.Objective.Energy_only
      | "delay" -> Ok Opt.Objective.Delay_only
      | _ -> Error (`Msg (Printf.sprintf "bad objective %S (edp|ed2|energy|delay)" s))
    in
    let print ppf o = Format.fprintf ppf "%s" (Opt.Objective.name o) in
    Arg.conv (parse, print)
  in
  let run socket tcp endpoint capacity flavor (pin, strategy) objective
      accounting seed reduced deadline_ms trace_id json =
    let method_ = Option.value ~default:Opt.Space.M2 pin in
    let strategy = Option.value ~default:Opt.Strategy.Exhaustive strategy in
    let socket_path = if socket = "" then None else Some socket in
    let deadline_ms = if deadline_ms > 0.0 then Some deadline_ms else None in
    let trace_id = if trace_id = "" then None else Some trace_id in
    let query =
      { Serve.Protocol.default_query with
        Serve.Protocol.capacity_bits = capacity;
        flavor;
        method_;
        strategy;
        rng_seed = seed;
        objective;
        accounting;
        space =
          (if reduced then Serve.Protocol.reduced_override
           else Serve.Protocol.no_override) }
    in
    let connected =
      match tcp with
      | Some addr -> Serve.Client.connect ~tcp:addr ()
      | None -> Serve.Client.connect ?socket_path ()
    in
    match connected with
    | Error e ->
      Printf.eprintf "sram_opt query: %s\n" e;
      exit 1
    | Ok client ->
      let finish = function
        | Error e ->
          Printf.eprintf "sram_opt query: %s\n" e;
          Serve.Client.close client;
          exit 1
        | Ok () -> Serve.Client.close client
      in
      (match endpoint with
       | `Ping ->
         finish
           (Result.map
              (fun j -> print_endline (Persist.Json.to_string j))
              (Serve.Client.ping client))
       | `Stats ->
         finish
           (Result.map
              (fun j -> print_endline (Persist.Json.to_string j))
              (Serve.Client.stats client))
       | `Metrics ->
         finish
           (Result.map print_string (Serve.Client.metrics client))
       | `Shutdown -> finish (Serve.Client.shutdown client)
       | `Explain ->
         finish
           (Result.map
              (fun j -> print_endline (Persist.Json.to_string j))
              (Serve.Client.explain ?deadline_ms ?trace_id client query))
       | `Optimize ->
         finish
           (Result.map
              (fun (a : Serve.Client.answer) ->
                if json then
                  print_endline (Persist.Json.to_string a.Serve.Client.payload)
                else begin
                  print_optimized
                    { Sram_edp.Framework.capacity_bits = a.Serve.Client.capacity_bits;
                      config = { Sram_edp.Framework.flavor; method_ };
                      result = a.Serve.Client.result };
                  Printf.printf "  answered in  : %.3g ms (checksum %s)\n"
                    (1000.0 *. a.Serve.Client.eval_s) a.Serve.Client.checksum
                end)
              (Serve.Client.optimize ?deadline_ms ?trace_id client query)))
  in
  let endpoint_arg =
    Arg.(value & opt endpoint_conv `Optimize
         & info [ "endpoint"; "e" ] ~docv:"ENDPOINT"
             ~doc:"optimize, explain, ping, stats, metrics or shutdown.")
  in
  let objective_arg =
    Arg.(value & opt objective_conv Opt.Objective.Energy_delay_product
         & info [ "objective" ] ~docv:"OBJ" ~doc:"edp, ed2, energy or delay.")
  in
  let reduced_arg =
    Arg.(value & flag
         & info [ "reduced" ]
             ~doc:"Search the reduced grid instead of the paper's full \
                   space (seconds -> milliseconds; the optimum is within \
                   a few percent).")
  in
  let query_deadline_arg =
    Arg.(value & opt float 0.0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request budget sent with the query (0 = server default).")
  in
  let trace_id_arg =
    Arg.(value & opt string ""
         & info [ "trace-id" ] ~docv:"ID"
             ~doc:"Tag the request: the id is echoed in the response and \
                   names the request in the server's spans, logs and \
                   flight dumps (empty = server-generated).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running `sram_opt serve` daemon")
    Term.(const run $ socket_arg $ tcp_arg $ endpoint_arg $ capacity_arg
          $ flavor_arg $ search_method_arg $ objective_arg $ accounting_arg
          $ seed_arg $ reduced_arg $ query_deadline_arg $ trace_id_arg
          $ json_flag)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    (* The +commit suffix matches the provenance stamped into cache and
       checkpoint log headers, so an operator can match a running
       server or an on-disk cache against a build with --version. *)
    Cmd.info "sram_opt" ~version:("1.0.0+" ^ Persist.Record_log.git_commit ())
      ~doc:"Device-circuit-architecture co-optimization of SRAM arrays (DAC'16 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ optimize_cmd; explain_cmd; sweep_cmd; experiments_cmd; margins_cmd;
            assist_cmd; anneal_cmd; bank_cmd; retention_cmd; corners_cmd; compare8t_cmd;
            workload_cmd; validate_cmd; stat_cmd; datasheet_cmd; simulate_cmd;
            export_cmd; serve_cmd; query_cmd ]))
