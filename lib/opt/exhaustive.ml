type candidate = {
  geometry : Array_model.Geometry.t;
  assist : Array_model.Components.assist;
  metrics : Array_model.Array_eval.metrics;
  score : float;
}

type result = {
  best : candidate;
  evaluated : int;
  pruned : int;
  skipped : int;
  considered : int;
  levels : Yield.levels;
  pins : Space.pins;
}

type kernel = [ `Staged | `Reference ]

let kernel_name = function `Staged -> "staged" | `Reference -> "reference"

(* Earlier-candidate-wins tie break: replace only on a strictly better
   score.  Identical to the sequential scan's [b.score <= score] guard. *)
let better acc candidate =
  match (acc, candidate) with
  | None, c -> c
  | acc, None -> acc
  | Some a, Some c -> if c.score < a.score then Some c else Some a

(* ----- FNV-1a checksum of chosen designs -----

   Over the fields that define a chosen design: if two sweeps pick the
   same designs bit-for-bit, their checksums match.  Deliberately
   excludes [evaluated]/[pruned], which are timing-dependent under
   parallelism while the winner is not. *)
let checksum (results : result list) =
  let h = ref 0xcbf29ce484222325L in
  let mix i64 = h := Int64.mul (Int64.logxor !h i64) 0x100000001b3L in
  List.iter
    (fun r ->
      let b = r.best in
      let g = b.geometry in
      mix (Int64.of_int g.Array_model.Geometry.nr);
      mix (Int64.of_int g.Array_model.Geometry.nc);
      mix (Int64.of_int g.Array_model.Geometry.n_pre);
      mix (Int64.of_int g.Array_model.Geometry.n_wr);
      mix (Int64.bits_of_float b.assist.Array_model.Components.vssc);
      mix (Int64.bits_of_float b.score);
      mix (Int64.bits_of_float b.metrics.Array_model.Array_eval.edp))
    results;
  Printf.sprintf "%016Lx" !h

(* ----- JSON codecs (journal / disk-cache payloads) -----

   Floats go through Persist.Json's %.17g representation, so a decoded
   candidate is bit-identical to the one encoded — the property the
   resume bit-identity guarantee needs. *)

module J = Persist.Json

let geometry_to_json (g : Array_model.Geometry.t) =
  J.Obj
    [
      ("nr", J.Int g.Array_model.Geometry.nr);
      ("nc", J.Int g.Array_model.Geometry.nc);
      ("w", J.Int g.Array_model.Geometry.w);
      ("n_pre", J.Int g.Array_model.Geometry.n_pre);
      ("n_wr", J.Int g.Array_model.Geometry.n_wr);
    ]

let geometry_of_json j =
  match
    ( J.int_field j "nr",
      J.int_field j "nc",
      J.int_field j "w",
      J.int_field j "n_pre",
      J.int_field j "n_wr" )
  with
  | Some nr, Some nc, Some w, Some n_pre, Some n_wr -> (
    try Some (Array_model.Geometry.create ~nr ~nc ~w ~n_pre ~n_wr ())
    with Invalid_argument _ -> None)
  | _ -> None

let assist_to_json (a : Array_model.Components.assist) =
  J.Obj
    [
      ("vddc", J.Float a.Array_model.Components.vddc);
      ("vssc", J.Float a.Array_model.Components.vssc);
      ("vwl", J.Float a.Array_model.Components.vwl);
    ]

let assist_of_json j =
  match
    (J.float_field j "vddc", J.float_field j "vssc", J.float_field j "vwl")
  with
  | Some vddc, Some vssc, Some vwl ->
    Some { Array_model.Components.vddc; vssc; vwl }
  | _ -> None

let metrics_to_json (m : Array_model.Array_eval.metrics) =
  let open Array_model.Array_eval in
  J.Obj
    [
      ("d_read", J.Float m.d_read);
      ("d_write", J.Float m.d_write);
      ("d_array", J.Float m.d_array);
      ("e_read", J.Float m.e_read);
      ("e_write", J.Float m.e_write);
      ("e_switching", J.Float m.e_switching);
      ("e_leakage", J.Float m.e_leakage);
      ("e_total", J.Float m.e_total);
      ("edp", J.Float m.edp);
      ("d_bl_read", J.Float m.d_bl_read);
      ("d_row_path_read", J.Float m.d_row_path_read);
      ("d_col_path", J.Float m.d_col_path);
    ]

let metrics_of_json j =
  let f = J.float_field j in
  match
    ( (f "d_read", f "d_write", f "d_array", f "e_read", f "e_write"),
      (f "e_switching", f "e_leakage", f "e_total", f "edp"),
      (f "d_bl_read", f "d_row_path_read", f "d_col_path") )
  with
  | ( (Some d_read, Some d_write, Some d_array, Some e_read, Some e_write),
      (Some e_switching, Some e_leakage, Some e_total, Some edp),
      (Some d_bl_read, Some d_row_path_read, Some d_col_path) ) ->
    Some
      {
        Array_model.Array_eval.d_read;
        d_write;
        d_array;
        e_read;
        e_write;
        e_switching;
        e_leakage;
        e_total;
        edp;
        d_bl_read;
        d_row_path_read;
        d_col_path;
      }
  | _ -> None

let candidate_to_json c =
  J.Obj
    [
      ("geometry", geometry_to_json c.geometry);
      ("assist", assist_to_json c.assist);
      ("metrics", metrics_to_json c.metrics);
      ("score", J.Float c.score);
    ]

let candidate_of_json j =
  match
    ( Option.bind (J.member "geometry" j) geometry_of_json,
      Option.bind (J.member "assist" j) assist_of_json,
      Option.bind (J.member "metrics" j) metrics_of_json,
      J.float_field j "score" )
  with
  | Some geometry, Some assist, Some metrics, Some score ->
    Some { geometry; assist; metrics; score }
  | _ -> None

let levels_to_json (l : Yield.levels) =
  J.Obj
    [
      ("vddc_min", J.Float l.Yield.vddc_min);
      ("vwl_min", J.Float l.Yield.vwl_min);
      ("hsnm_nominal", J.Float l.Yield.hsnm_nominal);
    ]

let levels_of_json j =
  match
    ( J.float_field j "vddc_min",
      J.float_field j "vwl_min",
      J.float_field j "hsnm_nominal" )
  with
  | Some vddc_min, Some vwl_min, Some hsnm_nominal ->
    Some { Yield.vddc_min; vwl_min; hsnm_nominal }
  | _ -> None

let pins_to_json (p : Space.pins) =
  J.Obj
    [
      ("vddc", J.Float p.Space.vddc);
      ("vwl", J.Float p.Space.vwl);
      ("vssc_allowed", J.Bool p.Space.vssc_allowed);
      ("extra_levels", J.Int p.Space.extra_levels);
    ]

let pins_of_json j =
  match
    ( J.float_field j "vddc",
      J.float_field j "vwl",
      Option.bind (J.member "vssc_allowed" j) J.to_bool,
      J.int_field j "extra_levels" )
  with
  | Some vddc, Some vwl, Some vssc_allowed, Some extra_levels ->
    Some { Space.vddc; vwl; vssc_allowed; extra_levels }
  | _ -> None

let result_to_json r =
  J.Obj
    [
      ("best", candidate_to_json r.best);
      ("evaluated", J.Int r.evaluated);
      ("pruned", J.Int r.pruned);
      ("skipped", J.Int r.skipped);
      ("considered", J.Int r.considered);
      ("levels", levels_to_json r.levels);
      ("pins", pins_to_json r.pins);
    ]

let result_of_json j =
  match
    ( Option.bind (J.member "best" j) candidate_of_json,
      J.int_field j "evaluated",
      J.int_field j "pruned",
      Option.bind (J.member "levels" j) levels_of_json,
      Option.bind (J.member "pins" j) pins_of_json )
  with
  | Some best, Some evaluated, Some pruned, Some levels, Some pins ->
    (* [skipped] and [considered] postdate the codec; payloads written
       before them count no mid-scan abandonment (0 states that
       exactly), and the best stand-in for an unrecorded product is the
       work actually performed. *)
    let skipped = Option.value (J.int_field j "skipped") ~default:0 in
    let considered =
      Option.value (J.int_field j "considered") ~default:evaluated
    in
    Some { best; evaluated; pruned; skipped; considered; levels; pins }
  | _ -> None

(* ----- checkpoint task signature -----

   Everything a chunk result depends on is folded into the signature,
   so a journal written against different grids, pins, environment
   knobs or chunking simply matches nothing and the sweep recomputes —
   a stale journal can never corrupt a resumed run. *)
let task_signature ~objective ~kernel ~(env : Array_model.Array_eval.env)
    ~capacity_bits ~method_ ~every ~(geometries : Array_model.Geometry.t array)
    ~(vssc_values : float array) ~(pins : Space.pins) =
  let h = ref 0xcbf29ce484222325L in
  let mix i64 = h := Int64.mul (Int64.logxor !h i64) 0x100000001b3L in
  let mixi i = mix (Int64.of_int i) in
  let mixf x = mix (Int64.bits_of_float x) in
  mixi capacity_bits;
  mixi every;
  mixi (Array.length geometries);
  Array.iter
    (fun (g : Array_model.Geometry.t) ->
      mixi g.Array_model.Geometry.nr;
      mixi g.Array_model.Geometry.nc;
      mixi g.Array_model.Geometry.w;
      mixi g.Array_model.Geometry.n_pre;
      mixi g.Array_model.Geometry.n_wr)
    geometries;
  Array.iter mixf vssc_values;
  mixf pins.Space.vddc;
  mixf pins.Space.vwl;
  mixi (if pins.Space.vssc_allowed then 1 else 0);
  mixi pins.Space.extra_levels;
  mixf env.Array_model.Array_eval.alpha;
  mixf env.Array_model.Array_eval.beta;
  mixf env.Array_model.Array_eval.dcdc_overhead;
  let accounting =
    match env.Array_model.Array_eval.accounting with
    | Array_model.Array_eval.Paper_strict -> "paper"
    | Array_model.Array_eval.Physical -> "physical"
  in
  Printf.sprintf "search|%s|%s|%s|%s|%s|cap=%d|%016Lx"
    (Objective.name objective) (kernel_name kernel)
    (Finfet.Library.flavor_to_string env.Array_model.Array_eval.cell_flavor)
    (Space.method_name method_) accounting capacity_bits !h

exception Deadline_exceeded

(* ----- batched-scan reduction helpers -----

   Scores read straight from the scan buffer, matching [Objective.eval]'s
   arithmetic bit-for-bit: EDP is the buffer's edp slot, ED^2
   left-associates as (e *. d) *. d = edp *. d, and the single-field
   objectives are their slots verbatim. *)

let score_at objective buf i =
  let open Array_model.Array_eval in
  match objective with
  | Objective.Energy_delay_product -> (scan_edp buf).(i)
  | Objective.Energy_delay_squared -> (scan_edp buf).(i) *. (scan_d_array buf).(i)
  | Objective.Energy_only -> (scan_e_total buf).(i)
  | Objective.Delay_only -> (scan_d_array buf).(i)

(* First-strictly-better winner fold over scanned slots [lo, hi) —
   the sequential scan's earlier-index-wins tie break.  The objective
   match sits outside the loop; the loop itself reads flat float arrays
   and allocates only when the incumbent improves (boxed ref store). *)
let fold_block objective buf ~lo ~hi best_i best_score =
  let open Array_model.Array_eval in
  match objective with
  | Objective.Energy_delay_product ->
    let a = scan_edp buf in
    for i = lo to hi - 1 do
      let s = Array.unsafe_get a i in
      if s < !best_score then begin
        best_i := i;
        best_score := s
      end
    done
  | Objective.Energy_delay_squared ->
    let a = scan_edp buf and d = scan_d_array buf in
    for i = lo to hi - 1 do
      let s = Array.unsafe_get a i *. Array.unsafe_get d i in
      if s < !best_score then begin
        best_i := i;
        best_score := s
      end
    done
  | Objective.Energy_only ->
    let a = scan_e_total buf in
    for i = lo to hi - 1 do
      let s = Array.unsafe_get a i in
      if s < !best_score then begin
        best_i := i;
        best_score := s
      end
    done
  | Objective.Delay_only ->
    let a = scan_d_array buf in
    for i = lo to hi - 1 do
      let s = Array.unsafe_get a i in
      if s < !best_score then begin
        best_i := i;
        best_score := s
      end
    done

(* Per-domain scan buffers: one allocation per domain per process —
   not per chunk, not per geometry — shared by every search this
   process runs (the buffers grow to the largest scan seen and stay). *)
let scan_buf = Runtime.Pool.local Array_model.Array_eval.scan_buffer
let bound_buf = Runtime.Pool.local Array_model.Array_eval.scan_buffer

(* Candidate grids keyed by what [Space.candidate_geometries] reads:
   the n_r, N_pre and N_wr axes, the capacity and w — all plain data,
   so structural comparison is safe.  Searches that differ only in
   method, flavor or V_SSC grid (the four searches of a Table 4
   capacity, served queries with a new V_SSC grid) get the same array,
   which is what lets the staging context find its staged grid by
   identity. *)
let geometry_memo :
    (int array * int array * int array * int * int option,
     Array_model.Geometry.t array)
    Runtime.Memo.t =
  Runtime.Memo.create ~name:"exhaustive.geometries" ~capacity:16 ()

(* Suffix-envelope block size: bounds are evaluated once per block, so
   the block trades bound overhead (one extra scan point per block)
   against how promptly a scan abandons its tail once the incumbent
   tightens below it. *)
let scan_block = 8

(* Bound tightness: relative gap (realized - bound) / realized between a
   line's admissible whole-line bound and the minimum its full scan
   actually achieved.  Near 0 means the envelope is nearly exact; mass
   near 1 would mean pruning works only because the incumbent is far
   better, not because the bound is tight.  Recorded for surviving
   fully-scanned lines when observability is on ([--stats] / serving),
   read back as quantiles by [--stats], BENCH_explain.json and the
   Prometheus exposition. *)
let bound_gap_hist =
  Obs.Histogram.create ~unit:Obs.Histogram.Ratio
    ~help:"relative slack of the line lower bound vs the realized line minimum"
    "opt.bound_gap"

let search_timer = Obs.Histogram.timer "exhaustive.search"

let journal_design (g : Array_model.Geometry.t) ~vssc =
  { Obs.Search.nr = g.Array_model.Geometry.nr;
    nc = g.Array_model.Geometry.nc;
    n_pre = g.Array_model.Geometry.n_pre;
    n_wr = g.Array_model.Geometry.n_wr;
    vssc }

let run ?(space = Space.default) ?(objective = Objective.Energy_delay_product)
    ?levels ?pool ?w ?(kernel = `Staged) ?stage_ctx ?journal ?deadline ~env
    ~capacity_bits ~method_ ~keep_all () =
  if not (Array_model.Geometry.is_power_of_two capacity_bits) then
    invalid_arg "Exhaustive.search: capacity must be a power of two";
  let pool = match pool with Some p -> p | None -> Runtime.Pool.default () in
  let journal =
    match journal with Some _ as j -> j | None -> Persist.Checkpoint.default ()
  in
  let flavor = env.Array_model.Array_eval.cell_flavor in
  let levels =
    match levels with Some l -> l | None -> Yield.solve ~flavor ()
  in
  let pins = Space.pins_for method_ levels in
  let vssc_values =
    if pins.Space.vssc_allowed then space.Space.vssc_values else [| 0.0 |]
  in
  (* Shared through the memo; consumers only read it. *)
  let geometries =
    Runtime.Memo.find_or_compute geometry_memo
      ( space.Space.nr_values, space.Space.n_pre_values,
        space.Space.n_wr_values, capacity_bits, w )
      (fun () ->
        Array.of_list (Space.candidate_geometries ?w space ~capacity_bits))
  in
  if Array.length geometries = 0 then
    invalid_arg "Exhaustive.search: empty geometry space";
  let evals = Runtime.Telemetry.counter "exhaustive.search" in
  let pruned_scans = Runtime.Telemetry.counter "exhaustive.pruned" in
  let nv = Array.length vssc_values in
  let assists = Array.map (fun vssc -> Space.assist_of pins ~vssc) vssc_values in
  (* Actual work counters (the old [geometries x vssc_values] product is
     wrong once scans are pruned).  On a resumed run these count only
     this process's work — replayed chunks contribute nothing. *)
  let n_evaluated = Atomic.make 0 in
  let n_pruned = Atomic.make 0 in
  let n_skipped = Atomic.make 0 in
  let count_evals n =
    ignore (Atomic.fetch_and_add n_evaluated n);
    Runtime.Telemetry.add evals n;
    Obs.Progress.add_evals n
  in
  Obs.Progress.add_total (Array.length geometries);
  (* Workers publish each geometry's scan minimum — an actually achieved
     score — and prune a later geometry only when its admissible lower
     bound strictly exceeds a published score.  A pruned geometry's true
     minimum is then strictly above the global minimum, so the winner
     (and the earlier-geometry tie break) is the same as the unpruned
     scan's for any job count; only the prune/eval counts are
     timing-dependent.  Hoisted out of the kernel match so a resumed
     run can seed it from journaled incumbents. *)
  let incumbent = Runtime.Shared_min.create () in
  (* One task per geometry chunk: scan the vssc axis in order, keeping
     the first-best candidate (and, when asked, every candidate in
     evaluation order).  The chunked results are reduced in geometry
     order below, so the output is bit-identical to the sequential
     geometry-major / vssc-minor scan for any job count. *)
  let eval_geometry_reference geometry =
    let best = ref None in
    let all = ref [] in
    Array.iter
      (fun assist ->
        let metrics = Array_model.Array_eval.evaluate env geometry assist in
        let score = Objective.eval objective metrics in
        let candidate = { geometry; assist; metrics; score } in
        if keep_all then all := candidate :: !all;
        match !best with
        | Some b when b.score <= score -> ()
        | Some _ | None -> best := Some candidate)
      assists;
    count_evals nv;
    (!best, List.rev !all)
  in
  (* Both staged arms stage the whole grid up front through a context —
     env-constant currents hoisted once, and the grid found again by its
     identity when a sibling search staged it — and read each line's
     record by index, so no lookup sits on the per-line path. *)
  let staged_grid () =
    let ctx =
      match stage_ctx with
      | Some c when Array_model.Array_eval.ctx_env c == env -> c
      | Some _ | None -> Array_model.Array_eval.ctx_for env
    in
    ( Array_model.Array_eval.stage_array ctx geometries,
      Array.map (Array_model.Array_eval.prepare env) assists )
  in
  let eval_line =
    match kernel with
    | `Reference -> fun i -> eval_geometry_reference geometries.(i)
    | `Staged when keep_all ->
      (* keep_all never prunes (the full candidate list is the
         contract), so it stays on the record-materializing path. *)
      let staged_arr, prepared = staged_grid () in
      fun i ->
        let geometry = geometries.(i) in
        let st = staged_arr.(i) in
        let best = ref None in
        let all = ref [] in
        Array.iteri
          (fun i assist ->
            let metrics = Array_model.Array_eval.complete st prepared.(i) in
            let score = Objective.eval objective metrics in
            let candidate = { geometry; assist; metrics; score } in
            all := candidate :: !all;
            match !best with
            | Some b when b.score <= score -> ()
            | Some _ | None -> best := Some candidate)
          assists;
        count_evals nv;
        (!best, List.rev !all)
    | `Staged ->
      (* Hot path: the whole vssc scan runs through the allocation-free
         batched kernel; [metrics] is materialized once, for the line's
         winner. *)
      let staged_arr, prepared = staged_grid () in
      (* Suffix envelopes as scan points: element 0 bounds the whole
         line (the per-geometry prune), element j > 0 bounds the points
         block j onward — evaluated by the same batched scan as real
         candidates, so pruning adds no record allocation either. *)
      let bound_ps =
        Array.map
          (Array_model.Array_eval.bound_prepared env)
          (Array_model.Array_eval.suffix_envelopes prepared ~block:scan_block)
      in
      let nb = Array.length bound_ps in
      (* Shared result for pruned lines: ~98% of lines die on the
         whole-line bound, so the constant saves a tuple per line. *)
      let pruned_line = (None, []) in
      fun i ->
        let st = Array.unsafe_get staged_arr i in
        let bbuf = Runtime.Pool.get_local bound_buf in
        (* Bound slot 0 (the whole-line bound) decides the per-geometry
           prune; most lines die on it, so the remaining suffix bounds
           are scanned only for survivors — a pruned line costs exactly
           one bound evaluation, as in the unbatched kernel. *)
        Array_model.Array_eval.scan_slice st bound_ps bbuf ~lo:0 ~hi:1;
        let line_bound = score_at objective bbuf 0 in
        if line_bound > Runtime.Shared_min.get incumbent then begin
          let np = Atomic.fetch_and_add n_pruned 1 in
          Runtime.Telemetry.incr pruned_scans;
          Obs.Progress.add_pruned 1;
          (* Journal a sample of prune decisions (observation only — the
             prune itself already happened).  The search's own prune
             counter doubles as the sampling clock, so the armed cost
             per pruned line is the [enabled] load alone; totals are
             folded into the journal once, at completion.  Whole-line
             events carry no vssc coordinate. *)
          if np land (Obs.Search.prune_sample - 1) = 0 && Obs.Search.enabled ()
          then
            Obs.Search.record_sampled_prune ~source:"exhaustive"
              ~bound:line_bound
              ~design:(journal_design geometries.(i) ~vssc:Float.nan);
          pruned_line
        end
        else begin
          if nb > 1 then
            Array_model.Array_eval.scan_slice st bound_ps bbuf ~lo:1 ~hi:nb;
          let buf = Runtime.Pool.get_local scan_buf in
          (* Block 0 seeds the incumbent from index 0 exactly as the
             sequential scan does, then folds the rest of the block. *)
          let h0 = min nv scan_block in
          Array_model.Array_eval.scan_slice st prepared buf ~lo:0 ~hi:h0;
          let best_i = ref 0 in
          let best_score = ref (score_at objective buf 0) in
          fold_block objective buf ~lo:1 ~hi:h0 best_i best_score;
          let scanned = ref h0 in
          let j = ref 1 in
          let live = ref (!j < nb) in
          while !live do
            (* Incremental envelope check between blocks: every point
               not yet scanned scores >= the suffix bound, so when that
               bound strictly exceeds both this line's best-so-far and
               the cross-line incumbent, the tail cannot contain the
               winner (or a tie) and the scan abandons it.  The prune
               stays exact as the incumbent tightens mid-scan. *)
            let tail_bound = score_at objective bbuf !j in
            let cutoff =
              Float.min !best_score (Runtime.Shared_min.get incumbent)
            in
            if tail_bound > cutoff then live := false
            else begin
              let lo = !j * scan_block in
              let hi = min nv (lo + scan_block) in
              Array_model.Array_eval.scan_slice st prepared buf ~lo ~hi;
              fold_block objective buf ~lo ~hi best_i best_score;
              scanned := hi;
              incr j;
              if !j >= nb then live := false
            end
          done;
          count_evals !scanned;
          if !scanned < nv then
            ignore (Atomic.fetch_and_add n_skipped (nv - !scanned));
          let bi = !best_i in
          let metrics = Array_model.Array_eval.complete st prepared.(bi) in
          let score = !best_score in
          (* Bound tightness is only meaningful against the line's true
             minimum, so abandoned scans (whose tail could still have
             improved [best_score], just not the winner) are excluded. *)
          if !scanned = nv && Obs.Control.is_enabled () && score > 0.0 then
            Obs.Histogram.observe bound_gap_hist
              ((score -. line_bound) /. score);
          (* The journal piggybacks on the CAS the search already pays:
             [publish_improved]'s boolean is read only when armed, so
             the published min — and therefore the winner — is
             identical with the journal on or off. *)
          let improved = Runtime.Shared_min.publish_improved incumbent score in
          if improved && Obs.Search.enabled () then
            Obs.Search.record_incumbent ~source:"exhaustive" ~score
              ~edp:metrics.Array_model.Array_eval.edp
              ~design:
                (journal_design geometries.(i)
                   ~vssc:assists.(bi).Array_model.Components.vssc);
          ( Some
              { geometry = Array.unsafe_get geometries i;
                assist = assists.(bi);
                metrics;
                score },
            [] )
        end
  in
  (* The per-geometry trace span is gated on [`Fine] detail: a full
     Table 4 sweep scans ~10^4 geometries and per-geometry events would
     dominate the trace buffer, so coarse traces keep only the
     structural spans (sweep / search / pool chunks). *)
  let eval_line i =
    (* Deadline check at geometry granularity: one geometry's vssc scan
       is microseconds, so an expired serving deadline stops the search
       almost immediately.  Under a pool the exception is re-raised in
       the caller once in-flight tasks finish — and every other chunk
       hits this same check on its next geometry, so the whole sweep
       drains in one scan's time rather than running to completion. *)
    (match deadline with
     | Some d when Obs.Clock.now () > d -> raise Deadline_exceeded
     | _ -> ());
    let r =
      if Obs.Trace.fine_active () then
        Obs.Trace.with_span "exhaustive.eval" (fun () -> eval_line i)
      else eval_line i
    in
    Obs.Progress.add_done 1;
    r
  in
  (* Journaled path: geometries are processed in fixed chunks of
     [checkpoint_every]; each completed chunk is journaled with its
     best candidate and the running incumbent.  On resume, completed
     chunks are skipped and their stored winners folded back in.
     Because chunk-major order equals geometry order and [better] is an
     order-respecting left fold, the reduction over chunk bests is the
     same fold as the flat per-geometry reduction — and the stored
     candidates round-trip bit-exactly — so the final winner is
     bit-identical to an uninterrupted run at any job count. *)
  let run_chunked journal =
    let every = Persist.Checkpoint.checkpoint_every journal in
    let ngeom = Array.length geometries in
    let n_chunks = (ngeom + every - 1) / every in
    let task =
      task_signature ~objective ~kernel ~env ~capacity_bits ~method_ ~every
        ~geometries ~vssc_values ~pins
    in
    (* Seed the incumbent with every journaled chunk winner so pruning
       starts warm; winner determinism never depends on this. *)
    List.iter
      (fun (_, data) ->
        match Option.bind (J.member "best" data) candidate_of_json with
        | Some c -> Runtime.Shared_min.publish incumbent c.score
        | None -> ())
      (Persist.Checkpoint.completed_for journal ~task);
    let eval_chunk ci =
      let lo = ci * every in
      let hi = min ngeom ((ci + 1) * every) - 1 in
      (* A journaled chunk replays only if its stored best round-trips:
         a JSON [Null] best is a legitimately empty chunk, but a best
         that no longer decodes (e.g. Geometry invariants tightened
         since the journal was written) must be recomputed — treating
         it as empty could silently drop the true winner. *)
      let replayed =
        match Persist.Checkpoint.completed journal ~task ~chunk:ci with
        | None -> None
        | Some data -> (
          match J.member "best" data with
          | Some J.Null -> Some None
          | Some j -> (
            match candidate_of_json j with
            | Some c -> Some (Some c)
            | None -> None)
          | None -> None)
      in
      match replayed with
      | Some stored_best ->
        Obs.Progress.add_done (hi - lo + 1);
        stored_best
      | None ->
        let best = ref None in
        for i = lo to hi do
          best := better !best (fst (eval_line i))
        done;
        if Obs.Search.enabled () then
          Obs.Search.record_chunk ~source:"exhaustive" ~index:ci
            ~score:(match !best with Some c -> c.score | None -> infinity);
        let incumbent_json =
          let s = Runtime.Shared_min.get incumbent in
          if Float.is_finite s then J.Float s else J.Null
        in
        Persist.Checkpoint.record journal ~task ~chunk:ci
          (J.Obj
             [
               ( "best",
                 match !best with
                 | Some c -> candidate_to_json c
                 | None -> J.Null );
               ("incumbent", incumbent_json);
               ("lo", J.Int lo);
               ("hi", J.Int hi);
             ]);
        !best
    in
    Runtime.Pool.parmap ~chunk:1 pool eval_chunk
      (Array.init n_chunks (fun i -> i))
  in
  let best, all =
    match journal with
    | Some journal when not keep_all ->
      let chunk_bests =
        Obs.Histogram.span search_timer (fun () ->
            run_chunked journal)
      in
      (Array.fold_left better None chunk_bests, [])
    | _ ->
      let per_geometry =
        Obs.Histogram.span search_timer (fun () ->
            Runtime.Pool.parmap pool eval_line
              (Array.init (Array.length geometries) (fun i -> i)))
      in
      ( Array.fold_left (fun acc (b, _) -> better acc b) None per_geometry,
        if keep_all then List.concat_map snd (Array.to_list per_geometry)
        else [] )
  in
  match best with
  | None -> invalid_arg "Exhaustive.search: no candidates"
  | Some best ->
    Obs.Search.note_prunes (Atomic.get n_pruned);
    ( { best;
        evaluated = Atomic.get n_evaluated;
        pruned = Atomic.get n_pruned;
        skipped = Atomic.get n_skipped;
        considered = Array.length geometries * nv;
        levels;
        pins },
      all )

let search ?space ?objective ?levels ?pool ?w ?kernel ?stage_ctx ?journal
    ?deadline ~env ~capacity_bits ~method_ () =
  fst
    (run ?space ?objective ?levels ?pool ?w ?kernel ?stage_ctx ?journal
       ?deadline ~env ~capacity_bits ~method_ ~keep_all:false ())

let search_all ?space ?objective ?levels ?pool ?w ?kernel ?deadline ~env
    ~capacity_bits ~method_ () =
  run ?space ?objective ?levels ?pool ?w ?kernel ?deadline ~env ~capacity_bits
    ~method_ ~keep_all:true ()
