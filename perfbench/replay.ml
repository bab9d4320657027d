(* In-process replay of a workload's requests: the reference checksums
   that the timed phase's answers are checked against, and the traced
   replay that times each layer's public functions in the program's
   order for the per-layer metrics. *)

module P = Serve.Protocol
module J = Persist.Json
module F = Sram_edp.Framework
module AE = Array_model.Array_eval

let now = Obs.Clock.now
let config_of (q : P.query) = { F.flavor = q.P.flavor; method_ = q.P.method_ }

let space_of (q : P.query) =
  if q.P.space = P.no_override then None else Some (P.space_of_override q.P.space)

(* The call the server and the CLI make for one query. *)
let optimize (q : P.query) =
  F.optimize ?space:(space_of q) ~objective:q.P.objective
    ~accounting:q.P.accounting ~w:q.P.w ~strategy:q.P.strategy
    ~rng_seed:q.P.rng_seed ~capacity_bits:q.P.capacity_bits ~config:(config_of q)
    ()

let checksum (o : F.optimized) = Opt.Exhaustive.checksum [ o.F.result ]

let table4_checksum () =
  Opt.Exhaustive.checksum (List.map (fun q -> (optimize q).F.result) Gen.table4)

(* Reference checksum per key, computed with warm memos.  The answers are
   deterministic, so a forked child computes the second half of the keys
   while this process computes the first: the pass takes half as long as
   the timed phase that sent them. *)
let references queries =
  let distinct = Hashtbl.create 1024 in
  List.iter (fun q -> Hashtbl.replace distinct (Gen.key q) q) queries;
  let keyed = Array.of_seq (Hashtbl.to_seq distinct) in
  let n = Array.length keyed in
  let half = n / 2 in
  let compute lo hi = Array.init (hi - lo) (fun i -> checksum (optimize (snd keyed.(lo + i)))) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    match Unix.fork () with
    | 0 -> (
      (* [_exit]: the parent's [at_exit] cleanup must not run here. *)
      try
        Unix.close rd;
        let oc = Unix.out_channel_of_descr wr in
        Array.iter (fun c -> output_string oc (c ^ "\n")) (compute half n);
        close_out oc;
        Unix._exit 0
      with _ -> Unix._exit 1)
    | pid -> pid
  in
  Unix.close wr;
  let mine = compute 0 half in
  let ic = Unix.in_channel_of_descr rd in
  let theirs = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 when List.length theirs = n - half -> ()
   | _ -> failwith "reference pass: the forked half failed");
  let sums = Array.append mine (Array.of_list theirs) in
  let refs = Hashtbl.create n in
  Array.iteri (fun i (k, _) -> Hashtbl.replace refs k sums.(i)) keyed;
  refs

(* ----- encoders: what the program writes back for one answer ----- *)

let null_fd = lazy (Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0)

(* The server's optimize payload, response and frame. *)
let encode_served ~id (q : P.query) (o : F.optimized) ~eval_s =
  let payload =
    J.Obj
      [ ("capacity_bits", J.Int q.P.capacity_bits);
        ("config", J.String (F.config_name (config_of q)));
        ("strategy", J.String (Opt.Strategy.name q.P.strategy));
        ("checksum", J.String (checksum o));
        ("eval_s", J.Float eval_s);
        ("result", Opt.Exhaustive.result_to_json o.F.result) ]
  in
  let s = J.to_string (P.response_to_json { P.rid = id; rtrace_id = None; body = Ok payload }) in
  Serve.Frame.write (Lazy.force null_fd) s;
  String.length s

(* The CLI's [optimize --json] document. *)
let encode_oneshot (q : P.query) (o : F.optimized) =
  let module O = Sram_edp.Json_out in
  let g = F.geometry o and a = F.assist o in
  let doc =
    O.Obj
      [ ("capacity_bits", O.Int q.P.capacity_bits);
        ("config", O.String (F.config_name o.F.config));
        ("strategy", O.String (Opt.Strategy.name q.P.strategy));
        ("nr", O.Int g.Array_model.Geometry.nr);
        ("nc", O.Int g.Array_model.Geometry.nc);
        ("n_pre", O.Int g.Array_model.Geometry.n_pre);
        ("n_wr", O.Int g.Array_model.Geometry.n_wr);
        ("vddc_v", O.Float a.Array_model.Components.vddc);
        ("vssc_v", O.Float a.Array_model.Components.vssc);
        ("vwl_v", O.Float a.Array_model.Components.vwl);
        ("metrics", O.of_metrics (F.metrics o));
        ("checksum", O.String (checksum o)) ]
  in
  let s = O.to_string_pretty doc ^ "\n" in
  ignore (Unix.write_substring (Lazy.force null_fd) s 0 (String.length s));
  String.length s

(* ----- the traced replay ----- *)

type kind =
  | Oneshot of string option
      (** every request as cold as a fresh process, with this
          [--cache-dir] *)
  | Served  (** one warm process: the setup queries, then the stream *)

type traced = {
  spans : Span.t list;
  requests : int;
  results : (P.query * Opt.Exhaustive.result) list;  (** per request *)
  optimize_hits : int;
  optimize_lookups : int;
  cache_hits : int;
  cache_misses : int;
  response_bytes : int;
}

let memo_counts name =
  match
    List.find_opt
      (fun (s : Runtime.Memo.stats) -> s.Runtime.Memo.name = name)
      (Runtime.Memo.registered_stats ())
  with
  | Some s -> (s.Runtime.Memo.hits, s.Runtime.Memo.hits + s.Runtime.Memo.misses)
  | None -> (0, 0)

let counter name = Runtime.Telemetry.value (Runtime.Telemetry.counter name)

let fresh_process () =
  Runtime.Memo.reset_all ();
  AE.reset_staging ()

(* Layer spans are named [layer] or [layer.detail]. *)
let layer_of s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

let layers = [ "decode"; "memo"; "cache"; "yield"; "periphery"; "stage"; "search"; "encode" ]

let run_traced ~kind ~setup ~timed =
  fresh_process ();
  (* Keys the process has answered: a repeat is served by the memo, so
     the layers below it are not called first. *)
  let seen = Hashtbl.create 64 in
  (match kind with
   | Served ->
     List.iter
       (fun q ->
         ignore (optimize q);
         Hashtbl.replace seen (Gen.key q) ())
       setup
   | Oneshot _ -> ());
  let r = Span.create () in
  let hits = ref 0 and lookups = ref 0 and c_hits = ref 0 and c_misses = ref 0 in
  let bytes = ref 0 in
  let results = ref [] in
  List.iteri
    (fun rid q ->
      (match kind with
       | Oneshot _ ->
         fresh_process ();
         Hashtbl.reset seen
       | Served -> ());
      let id = rid + 1 in
      let h0, l0 = memo_counts "framework.optimize" in
      let ch0 = counter "persist.cache.hit" and cm0 = counter "persist.cache.miss" in
      let root = Span.open_id r in
      let t0 = now () in
      let sp name f = Span.timed r ~rid ~parent:root name f in
      let q =
        match kind with
        | Oneshot _ -> q
        | Served ->
          let frame =
            J.to_string
              (P.request_to_json
                 { P.id; deadline_ms = None; trace_id = None; endpoint = P.Optimize q })
          in
          sp "decode" (fun () ->
              match Result.bind (J.of_string frame) P.request_of_json with
              | Ok { P.endpoint = P.Optimize q; _ } -> q
              | Ok _ | Error _ -> failwith "replay: request does not decode")
      in
      (match kind with
       | Oneshot (Some dir) -> sp "cache.open" (fun () -> Persist.Cache.set_dir (Some dir))
       | Oneshot None | Served -> ());
      let key = Gen.key q in
      if not (Hashtbl.mem seen key) then begin
        sp "yield" (fun () -> ignore (Opt.Yield.solve ~flavor:q.P.flavor ()));
        sp "periphery" (fun () ->
            ignore (Array_model.Periphery.shared ~cell_flavor:q.P.flavor));
        sp "stage" (fun () ->
            ignore (F.stage_ctx_for ~flavor:q.P.flavor ~accounting:q.P.accounting))
      end;
      let e0 = now () in
      let o =
        Span.timed_named r ~rid ~parent:root (fun () ->
            let before = fst (memo_counts "framework.optimize") in
            let o = optimize q in
            ((if fst (memo_counts "framework.optimize") > before then "memo" else "search"), o))
      in
      let eval_s = now () -. e0 in
      Hashtbl.replace seen key ();
      let n =
        sp "encode" (fun () ->
            match kind with
            | Served -> encode_served ~id q o ~eval_s
            | Oneshot _ -> encode_oneshot q o)
      in
      (match kind with
       | Oneshot (Some _) -> sp "cache.close" (fun () -> Persist.Cache.set_dir None)
       | Oneshot None | Served -> ());
      Span.add r
        { Span.id = root; name = "request"; rid; parent = -1; start_s = t0; end_s = now () };
      let h1, l1 = memo_counts "framework.optimize" in
      hits := !hits + h1 - h0;
      lookups := !lookups + l1 - l0;
      c_hits := !c_hits + counter "persist.cache.hit" - ch0;
      c_misses := !c_misses + counter "persist.cache.miss" - cm0;
      bytes := !bytes + n;
      results := (q, o.F.result) :: !results)
    timed;
  { spans = Span.spans r;
    requests = List.length timed;
    results = List.rev !results;
    optimize_hits = !hits;
    optimize_lookups = !lookups;
    cache_hits = !c_hits;
    cache_misses = !c_misses;
    response_bytes = !bytes }

(* ----- layer calls timed on their own ----- *)

let time f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* [Opt.Yield.solve] after [Runtime.Memo.reset_all]. *)
let yield_solve_s flavor =
  Stat.median
    (Array.init 3 (fun _ ->
         Runtime.Memo.reset_all ();
         time (fun () -> Opt.Yield.solve ~flavor ())))

let periphery_characterize_s flavor =
  Stat.median
    (Array.init 3 (fun _ ->
         time (fun () ->
             Array_model.Periphery.characterize
               ~lib:(Lazy.force Finfet.Library.default) ~cell_flavor:flavor ())))

let median_of n f = Stat.median (Array.init n (fun _ -> time f))

(* [Persist.Json.of_string] and [Protocol.request_of_json] of the
   query's request frame. *)
let decode_s (q : P.query) =
  let frame =
    J.to_string
      (P.request_to_json { P.id = 1; deadline_ms = None; trace_id = None; endpoint = P.Optimize q })
  in
  median_of 5 (fun () -> Result.bind (J.of_string frame) P.request_of_json)

(* [Framework.optimize] answered by its memo. *)
let memo_hit_s q =
  ignore (optimize q);
  median_of 5 (fun () -> optimize q)

(* [Array_eval.stage_array] of the query's grid on a fresh staging
   context, then [Opt.Strategy.run] once staging is warm, with the
   points that run decided. *)
let stage_and_run_s (q : P.query) =
  let env = AE.ctx_env (F.stage_ctx_for ~flavor:q.P.flavor ~accounting:q.P.accounting) in
  let space = Option.value (space_of q) ~default:Opt.Space.default in
  let grid =
    Array.of_list
      (Opt.Space.candidate_geometries ~w:q.P.w space ~capacity_bits:q.P.capacity_bits)
  in
  let ctx = AE.make_ctx env in
  let stage = time (fun () -> AE.stage_array ctx grid) in
  let run () =
    Opt.Strategy.run q.P.strategy ~space ~objective:q.P.objective ~w:q.P.w
      ~stage_ctx:ctx ~rng_seed:q.P.rng_seed ~env ~capacity_bits:q.P.capacity_bits
      ~method_:q.P.method_ ()
  in
  let r = run () in
  (stage, time run, r.Opt.Exhaustive.considered)

(* [Persist.Record_log.append] of each result's cache record: the disk
   write inside [Persist.Cache.add]. *)
let cache_add_s ~path results =
  let log = Persist.Record_log.create ~path ~schema:"cache/perfbench.probe" () in
  let times =
    List.map
      (fun (q, result) ->
        let record =
          J.Obj [ ("k", J.String (Gen.key q)); ("v", Opt.Exhaustive.result_to_json result) ]
        in
        time (fun () -> Persist.Record_log.append log record))
      results
  in
  Persist.Record_log.close log;
  Stat.median (Array.of_list times)
