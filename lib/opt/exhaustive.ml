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
      ("levels", Yield.levels_to_json r.levels);
      ("pins", pins_to_json r.pins);
    ]

let result_of_json j =
  match
    ( Option.bind (J.member "best" j) candidate_of_json,
      J.int_field j "evaluated",
      J.int_field j "pruned",
      Option.bind (J.member "levels" j) Yield.levels_of_json,
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
  mixf Array_model.Array_eval.dcdc_overhead;
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
   objectives are their slots verbatim.  Inlined because without
   flambda a float returned from a call is boxed: one allocation per
   pruned line. *)

let[@inline] score_at objective buf i =
  let open Array_model.Array_eval in
  match objective with
  | Objective.Energy_delay_product -> (scan_edp buf).(i)
  | Objective.Energy_delay_squared -> (scan_edp buf).(i) *. (scan_d_array buf).(i)
  | Objective.Energy_only -> (scan_e_total buf).(i)
  | Objective.Delay_only -> (scan_d_array buf).(i)

(* First-strictly-better winner fold over scanned slots [lo, hi) —
   the sequential scan's earlier-index-wins tie break.  The loop reads
   flat float arrays and allocates only when the incumbent improves
   (boxed ref store). *)
let fold_block objective buf ~lo ~hi best_i best_score =
  for i = lo to hi - 1 do
    let s = score_at objective buf i in
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
   the n_r, N_pre and N_wr axes, the capacity and the resolved w — all
   plain data, so structural comparison is safe.  Searches that differ
   only in method, flavor or V_SSC grid (the four searches of a Table 4
   capacity, served queries with a new V_SSC grid), or in whether they
   pass the default w, get the same array, which is what lets the
   staging store find its staged grid by identity. *)
let geometry_memo :
    (int array * int array * int array * int * int,
     Array_model.Geometry.t array)
    Runtime.Memo.t =
  Runtime.Memo.create ~name:"exhaustive.geometries" ~capacity:16 ()

(* Suffix-bound block size: bounds are evaluated once per block, so
   the block trades bound overhead (one extra scan point per block)
   against how promptly a scan abandons its tail once the incumbent
   tightens below it. *)
let scan_block = 8

(* Bound tightness: relative gap (realized - bound) / realized between a
   line's admissible whole-line bound and the minimum its full scan
   actually achieved.  Near 0 means the bound is nearly exact; mass
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

(* Deadline sampling.  A clock read costs about as much as scanning a
   pruned line, so a search reads it before the first geometry of each
   block and every [deadline_every] geometries after.  A worker's first
   geometry always starts a block, so an expired deadline stops the
   search before it scans anything. *)
let deadline_every = 64

let check_deadline = function
  | Some d when Obs.Clock.now () > d -> raise Deadline_exceeded
  | Some _ | None -> ()

let journal_design (g : Array_model.Geometry.t) ~vssc =
  { Obs.Search.nr = g.Array_model.Geometry.nr;
    nc = g.Array_model.Geometry.nc;
    n_pre = g.Array_model.Geometry.n_pre;
    n_wr = g.Array_model.Geometry.n_wr;
    vssc }

let run ?(space = Space.default) ?(objective = Objective.Energy_delay_product)
    ?levels ?w ?(kernel = `Staged) ?stage_ctx ?deadline ~env ~capacity_bits
    ~method_ ~keep_all () =
  let { Space.levels; pins; vssc_axis; assists; _ } =
    Space.scan_setup ?levels ~flavor:env.Array_model.Array_eval.cell_flavor
      ~capacity_bits method_ space
  in
  (* Keep-all never journals: its candidate list is too large to
     checkpoint usefully. *)
  let journal = if keep_all then None else Persist.Checkpoint.default () in
  (* Shared through the memo; consumers only read it. *)
  let geometries =
    let w = Option.value w ~default:64 in
    Runtime.Memo.find_or_compute geometry_memo
      ( space.Space.nr_values, space.Space.n_pre_values,
        space.Space.n_wr_values, capacity_bits, w )
      (fun () ->
        Array.of_list (Space.candidate_geometries ~w space ~capacity_bits))
  in
  let ngeom = Array.length geometries in
  let evals = Runtime.Telemetry.counter "exhaustive.search" in
  let pruned_scans = Runtime.Telemetry.counter "exhaustive.pruned" in
  let nv = Array.length assists in
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
  Obs.Progress.add_total ngeom;
  (* Workers publish each geometry's scan minimum — an actually achieved
     score — and prune a later geometry only when its admissible lower
     bound strictly exceeds a published score.  A pruned geometry's true
     minimum is then strictly above the global minimum, so the winner
     (and the earlier-geometry tie break) is the same as the unpruned
     scan's for any job count; only the prune/eval counts are
     timing-dependent.  A resumed run seeds it from journaled chunk
     winners. *)
  let incumbent = Runtime.Shared_min.create () in
  (* Both staged arms stage the whole grid up front through a context —
     the grid found again by its identity when a sibling search staged
     it — and read each line's operands by index, so no lookup sits on
     the per-line path. *)
  let staged_grid () =
    let ctx =
      match stage_ctx with
      | Some c when Array_model.Array_eval.ctx_env c == env -> c
      | Some _ | None -> Array_model.Array_eval.ctx_for env
    in
    ( Array_model.Array_eval.stage_array ctx geometries,
      Array.map (Array_model.Array_eval.prepare env) assists )
  in
  (* The unpruned line, for the reference kernel and for keep-all: scan
     the vssc axis in order, pricing each point with [price i j] and
     keeping the first-best candidate (and, under keep-all, every
     candidate in evaluation order). *)
  let unpruned_line price i =
    let geometry = geometries.(i) in
    let best = ref None and all = ref [] in
    Array.iteri
      (fun j assist ->
        let metrics = price i j in
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
  let eval_line =
    match kernel with
    | `Reference ->
      unpruned_line (fun i j ->
          Array_model.Array_eval.evaluate env geometries.(i) assists.(j))
    | `Staged when keep_all ->
      (* keep_all never prunes: the full candidate list is the
         contract. *)
      let grid, prepared = staged_grid () in
      unpruned_line (fun i j -> Array_model.Array_eval.complete grid i prepared.(j))
    | `Staged ->
      (* Hot path: the whole vssc scan runs through the allocation-free
         batched kernel; [metrics] is materialized once, for the line's
         winner. *)
      let grid, prepared = staged_grid () in
      (* Suffix bounds as scan points: element 0 bounds the whole
         line (the per-geometry prune), element j > 0 bounds the points
         block j onward — evaluated by the same batched scan as real
         candidates, so pruning adds no record allocation either. *)
      let bound_ps =
        Array_model.Array_eval.suffix_bounds prepared ~block:scan_block
      in
      let nb = Array.length bound_ps in
      (* Shared result for pruned lines: ~98% of lines die on the
         whole-line bound, so the constant saves a tuple per line. *)
      let pruned_line = (None, []) in
      fun i ->
        let bbuf = Runtime.Pool.get_local bound_buf in
        (* Bound slot 0 (the whole-line bound) decides the per-geometry
           prune; most lines die on it, so the remaining suffix bounds
           are scanned only for survivors — a pruned line costs exactly
           one bound evaluation, as in the unbatched kernel. *)
        Array_model.Array_eval.scan_slice grid i bound_ps bbuf ~lo:0 ~hi:1;
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
            Array_model.Array_eval.scan_slice grid i bound_ps bbuf ~lo:1 ~hi:nb;
          let buf = Runtime.Pool.get_local scan_buf in
          (* Block 0 seeds the incumbent from index 0 exactly as the
             sequential scan does, then folds the rest of the block. *)
          let h0 = min nv scan_block in
          Array_model.Array_eval.scan_slice grid i prepared buf ~lo:0 ~hi:h0;
          let best_i = ref 0 in
          let best_score = ref (score_at objective buf 0) in
          fold_block objective buf ~lo:1 ~hi:h0 best_i best_score;
          let scanned = ref h0 in
          let j = ref 1 in
          let live = ref (!j < nb) in
          while !live do
            (* Incremental bound check between blocks: every point
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
              Array_model.Array_eval.scan_slice grid i prepared buf ~lo ~hi;
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
          let metrics = Array_model.Array_eval.complete grid i prepared.(bi) in
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
    let r =
      if Obs.Trace.fine_active () then
        Obs.Trace.with_span "exhaustive.eval" (fun () -> eval_line i)
      else eval_line i
    in
    Obs.Progress.add_done 1;
    r
  in
  (* The sweep's blocks are a journal's chunks of [checkpoint_every]
     geometries, else [deadline_every]; only a journal replays a block's
     stored winner or records a computed one. *)
  let every =
    match journal with
    | Some j -> Persist.Checkpoint.checkpoint_every j
    | None -> deadline_every
  in
  let replay, record =
    match journal with
    | None -> ((fun _ -> None), fun _ _ -> ())
    | Some journal ->
      let task =
        task_signature ~objective ~kernel ~env ~capacity_bits ~method_ ~every
          ~geometries ~vssc_values:vssc_axis ~pins
      in
      (* Seed the incumbent with every journaled chunk winner so pruning
         starts warm; winner determinism never depends on this. *)
      List.iter
        (fun (_, data) ->
          match Option.bind (J.member "best" data) candidate_of_json with
          | Some c -> Runtime.Shared_min.publish incumbent c.score
          | None -> ())
        (Persist.Checkpoint.completed_for journal ~task);
      (* A journaled chunk replays only if its stored best round-trips:
         a JSON [Null] best is a legitimately empty chunk, but a best
         that no longer decodes (e.g. Geometry invariants tightened
         since the journal was written) must be recomputed — treating
         it as empty could silently drop the true winner. *)
      let replay b =
        match
          Option.bind
            (Persist.Checkpoint.completed journal ~task ~chunk:b)
            (J.member "best")
        with
        | Some J.Null -> Some None
        | Some j -> Option.map Option.some (candidate_of_json j)
        | None -> None
      in
      (* A chunk record holds its winner alone: replay and the
         incumbent seeding read nothing else (records that also carry
         the fields older builds wrote replay the same). *)
      let record b best =
        if Obs.Search.enabled () then
          Obs.Search.record_chunk ~source:"exhaustive" ~index:b
            ~score:(match best with Some c -> c.score | None -> infinity);
        Persist.Checkpoint.record journal ~task ~chunk:b
          (J.Obj
             [ ("best", match best with Some c -> candidate_to_json c | None -> J.Null) ])
      in
      (replay, record)
  in
  (* One pool element per block.  [better] keeps the earliest
     strictly-best candidate, so folding within blocks and then across
     them in order picks the flat fold's winner, and a replayed winner
     round-trips bit-exactly, so a resumed sweep picks an uninterrupted
     one's at any job count.  Under a pool an expired deadline is
     re-raised in the caller once in-flight tasks finish, and every
     other worker meets it at its next check, so the sweep drains. *)
  let eval_block b =
    let lo = b * every in
    let hi = min ngeom (lo + every) in
    match replay b with
    | Some stored_best ->
      Obs.Progress.add_done (hi - lo);
      (stored_best, [])
    | None ->
      let best = ref None and all = ref [] in
      for i = lo to hi - 1 do
        if (i - lo) mod deadline_every = 0 then check_deadline deadline;
        let line_best, cands = eval_line i in
        best := better !best line_best;
        if keep_all then all := cands :: !all
      done;
      record b !best;
      (!best, List.concat (List.rev !all))
  in
  let per_block =
    Obs.Histogram.span search_timer (fun () ->
        Runtime.Pool.parmap (Runtime.Pool.default ()) eval_block
          (Array.init ((ngeom + every - 1) / every) Fun.id))
  in
  match Array.fold_left (fun acc (b, _) -> better acc b) None per_block with
  | None -> invalid_arg "Exhaustive.search: no candidates"
  | Some best ->
    Obs.Search.note_prunes (Atomic.get n_pruned);
    ( { best;
        evaluated = Atomic.get n_evaluated;
        pruned = Atomic.get n_pruned;
        skipped = Atomic.get n_skipped;
        considered = ngeom * nv;
        levels;
        pins },
      List.concat_map snd (Array.to_list per_block) )

let search ?space ?objective ?levels ?w ?kernel ?stage_ctx ?deadline ~env
    ~capacity_bits ~method_ () =
  fst
    (run ?space ?objective ?levels ?w ?kernel ?stage_ctx ?deadline ~env
       ~capacity_bits ~method_ ~keep_all:false ())

let search_all ?space ?objective ?levels ?w ?deadline ~env ~capacity_bits
    ~method_ () =
  run ?space ?objective ?levels ?w ?deadline ~env ~capacity_bits ~method_
    ~keep_all:true ()
