(* The shared evaluator under every heuristic engine ({!Local_search},
   {!Anneal}, {!Nsga2}, {!Surrogate}).

   The engines decide *geometries*; pricing one geometry prices its
   whole V_SSC line for free through the batched scan kernel
   ({!Array_model.Array_eval.scan}).  This module caches those lines —
   one scan per distinct (n_r, N_pre, N_wr) ever touched — and accounts
   evaluations honestly: [evaluated] counts every scan point produced,
   which is exactly what the exhaustive oracle's [considered] counts,
   so the bench's "evaluations used vs exhaustive" comparison is
   apples-to-apples.

   The strategy contract lives here rather than in each engine: the
   levels are applied at [create], every fill runs on the process-wide
   pool, the deadline is checked once per [ensure], and the
   [Obs.Search] incumbent journal is fed on every strict improvement of
   the global incumbent.  An engine built on this cache honours those
   knobs by construction.

   Determinism: a line's contents depend only on (env, space, pins,
   geometry) — never on job count or arrival order — and the fill path
   runs missing keys through {!Runtime.Pool.parmap}, whose index-
   ordered results make the incumbent fold below bit-identical at any
   [--jobs].  Everything the calling algorithms observe (scores,
   points, bests) is therefore a pure function of the key sequence they
   request. *)

type key = {
  nr_i : int;
  n_pre_i : int;
  n_wr_i : int;
}

type line = {
  l_e : float array;
  l_d : float array;
  l_edp : float array;
  l_best_i : int;      (* argmin of the scalar objective on this line *)
  l_best_score : float;
}

type t = {
  env : Array_model.Array_eval.env;
  objective : Objective.t;
  w : int;
  capacity_bits : int;
  setup : Space.scan_setup;
  space : Space.t;
  prepared : Array_model.Array_eval.prepared array;
  deadline : float option;
  name : string;  (* journal source; the counter is [name ^ ".search"] *)
  lines : (key, line) Hashtbl.t;
  mutable evaluated : int;
  (* Global incumbent over every scanned line, maintained in request
     order (deterministic): strictly-better-score wins, ties keep the
     earlier line. *)
  mutable best : (key * int * float) option;
  counter : Runtime.Telemetry.counter;
}

let scan_buf = Runtime.Pool.local Array_model.Array_eval.scan_buffer

let create ?(space = Space.default)
    ?(objective = Objective.Energy_delay_product) ?levels ?(w = 64)
    ?deadline ~env ~capacity_bits ~method_ ~name () =
  let setup =
    Space.scan_setup ?levels ~flavor:env.Array_model.Array_eval.cell_flavor
      ~capacity_bits method_ space
  in
  let prepared =
    Array.map (Array_model.Array_eval.prepare env) setup.Space.assists
  in
  { env; objective; w; capacity_bits; setup; space; prepared; deadline; name;
    lines = Hashtbl.create 256; evaluated = 0; best = None;
    counter = Runtime.Telemetry.counter (name ^ ".search") }

let nv t = Array.length t.setup.Space.assists
let n_nr t = Array.length t.setup.Space.rows
let n_pre t = Array.length t.space.Space.n_pre_values
let n_wr t = Array.length t.space.Space.n_wr_values
let evaluated t = t.evaluated

let geometry_of t k =
  let nr = t.setup.Space.rows.(k.nr_i) in
  Array_model.Geometry.create ~nr ~nc:(t.capacity_bits / nr) ~w:t.w
    ~n_pre:t.space.Space.n_pre_values.(k.n_pre_i)
    ~n_wr:t.space.Space.n_wr_values.(k.n_wr_i)
    ()

(* The scalar objective read off the scan buffers, bit-identical to
   [Objective.eval] of the completed metrics (ED^2 left-associates as
   edp *. d — the scan kernel's contract). *)
let score_of_line l objective i =
  match objective with
  | Objective.Energy_delay_product -> l.l_edp.(i)
  | Objective.Energy_delay_squared -> l.l_edp.(i) *. l.l_d.(i)
  | Objective.Energy_only -> l.l_e.(i)
  | Objective.Delay_only -> l.l_d.(i)

let scan_line t k =
  let grid = Array_model.Array_eval.stage t.env (geometry_of t k) in
  let buf = Runtime.Pool.get_local scan_buf in
  Array_model.Array_eval.scan grid 0 t.prepared buf;
  let dim = nv t in
  let open Array_model.Array_eval in
  let l =
    { l_e = Array.sub (scan_e_total buf) 0 dim;
      l_d = Array.sub (scan_d_array buf) 0 dim;
      l_edp = Array.sub (scan_edp buf) 0 dim;
      l_best_i = 0;
      l_best_score = 0.0 }
  in
  let best_i = ref 0 in
  let best_s = ref (score_of_line l t.objective 0) in
  for i = 1 to dim - 1 do
    let s = score_of_line l t.objective i in
    if s < !best_s then begin
      best_i := i;
      best_s := s
    end
  done;
  { l with l_best_i = !best_i; l_best_score = !best_s }

(* Observation only: the journal never feeds back into the search, so
   results are identical with it on or off. *)
let journal_incumbent t k l =
  let i = l.l_best_i in
  let nr = t.setup.Space.rows.(k.nr_i) in
  Obs.Search.record_incumbent ~source:t.name ~score:l.l_best_score
    ~edp:l.l_edp.(i)
    ~design:
      { Obs.Search.nr;
        nc = t.capacity_bits / nr;
        n_pre = t.space.Space.n_pre_values.(k.n_pre_i);
        n_wr = t.space.Space.n_wr_values.(k.n_wr_i);
        vssc = t.setup.Space.assists.(i).Array_model.Components.vssc }

(* Fill every missing key, scanning in parallel but folding incumbents
   in the (deterministic) request order.  The deadline is checked once
   per call, before any scan, so an expired deadline stops every engine
   within one batch of scans. *)
let ensure t keys =
  (match t.deadline with
  | Some d when Obs.Clock.now () > d ->
    raise Exhaustive.Deadline_exceeded
  | _ -> ());
  let missing =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun k ->
        if Hashtbl.mem t.lines k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      keys
  in
  if missing <> [] then begin
    let keys = Array.of_list missing in
    let lines =
      Runtime.Pool.parmap ~chunk:1 (Runtime.Pool.default ()) (scan_line t) keys
    in
    let dim = nv t in
    Array.iteri
      (fun i k ->
        let l = lines.(i) in
        Hashtbl.add t.lines k l;
        t.evaluated <- t.evaluated + dim;
        Runtime.Telemetry.add t.counter dim;
        Obs.Progress.add_evals dim;
        let improved =
          match t.best with
          | None -> true
          | Some (_, _, s) -> l.l_best_score < s
        in
        if improved then begin
          t.best <- Some (k, l.l_best_i, l.l_best_score);
          if Obs.Search.enabled () then journal_incumbent t k l
        end)
      keys
  end

let line t k =
  match Hashtbl.find_opt t.lines k with
  | Some l -> l
  | None ->
    ensure t [ k ];
    Hashtbl.find t.lines k

let score t k i = score_of_line (line t k) t.objective i
let point t k i =
  let l = line t k in
  (l.l_d.(i), l.l_e.(i))

let line_best t k =
  let l = line t k in
  (l.l_best_i, l.l_best_score)

let best t = t.best

let candidate t k i =
  let geometry = geometry_of t k in
  let grid = Array_model.Array_eval.stage t.env geometry in
  let metrics = Array_model.Array_eval.complete grid 0 t.prepared.(i) in
  { Exhaustive.geometry;
    assist = t.setup.Space.assists.(i);
    metrics;
    score = score t k i }

(* Coordinate descent on the vssc-minimized landscape g(geometry) =
   min over the line — each coordinate move prices a whole row of
   lines, cycled until a full cycle stops improving.  Deterministic:
   ties keep the incumbent index.  This is the whole of {!Local_search}
   (run from its restart points) and the polish step the samplers run
   after their sampling phase; on this space the basin around the
   near-optimal designs the samplers reach is descent-connected to the
   grid optimum, which is what drives winner-regret to zero. *)
let descend_by ?(probe = true) ?(window = max_int) t value start =
  let axis_dim = function
    | `Nr -> n_nr t
    | `Npre -> n_pre t
    | `Nwr -> n_wr t
  in
  let with_index k axis i =
    match axis with
    | `Nr -> { k with nr_i = i }
    | `Npre -> { k with n_pre_i = i }
    | `Nwr -> { k with n_wr_i = i }
  in
  let axis_index k = function
    | `Nr -> k.nr_i
    | `Npre -> k.n_pre_i
    | `Nwr -> k.n_wr_i
  in
  let scan_axis k axis =
    let dim = axis_dim axis in
    let i0 = axis_index k axis in
    (* [window] may be [max_int]; guard the arithmetic from overflow. *)
    let lo = if window >= dim then 0 else max 0 (i0 - window) in
    let hi = if window >= dim then dim - 1 else min (dim - 1) (i0 + window) in
    let row = List.init (hi - lo + 1) (fun j -> with_index k axis (lo + j)) in
    ensure t row;
    let best = ref k and best_v = ref (value k) in
    List.iter
      (fun k' ->
        let v = value k' in
        if v < !best_v then begin
          best := k';
          best_v := v
        end)
      row;
    !best
  in
  (* Escape hatch for coupled minima: when every single-axis full-row
     move stalls, probe joint +-1/+-2 steps on each *pair* of axes (a
     pattern-search move).  The (N_pre, N_wr) coupling is real on this
     landscape — both feed the same decoder/driver energy split — and
     an axis-aligned descent alone provably sticks one grid step away
     from the optimum on the reduced grid. *)
  let joint_probe k =
    let offsets = [ -2; -1; 1; 2 ] in
    let neighbors =
      List.concat_map
        (fun (a, b) ->
          List.concat_map
            (fun da ->
              List.filter_map
                (fun db ->
                  let ia = axis_index k a + da and ib = axis_index k b + db in
                  if
                    ia < 0 || ia >= axis_dim a || ib < 0 || ib >= axis_dim b
                  then None
                  else Some (with_index (with_index k a ia) b ib))
                offsets)
            offsets)
        [ (`Nr, `Npre); (`Nr, `Nwr); (`Npre, `Nwr) ]
    in
    ensure t neighbors;
    let v0 = value k in
    let best, best_v =
      List.fold_left
        (fun ((_, bv) as acc) k' ->
          let v = value k' in
          if v < bv then (k', v) else acc)
        (k, v0) neighbors
    in
    if best_v < v0 -. 1e-40 then Some best else None
  in
  let rec cycle k =
    let k' =
      List.fold_left (fun k axis -> scan_axis k axis) k [ `Nr; `Npre; `Nwr ]
    in
    if value k' < value k -. 1e-40 then cycle k'
    else if probe then
      match joint_probe k' with Some k'' -> cycle k'' | None -> k'
    else k'
  in
  ensure t [ start ];
  cycle start

let descend t start = descend_by t (fun k -> snd (line_best t k)) start

(* The knee polish above chases the scalar objective; the front's
   *endpoints* — the min-delay and min-energy designs — can live on
   lines it never prices.  Two extra descents on the line-minima of
   each pure metric pull those extremes into the cache, which is what
   lifts the returned front's hypervolume to the >= 99% gate. *)
let descend_edges t start =
  let line_min proj k =
    let l = line t k in
    Array.fold_left min infinity (proj l)
  in
  (* No joint probe and windowed rows here: the endpoints only have to
     land close enough for front coverage (the hypervolume gate), not
     exactly — a +-4-index walk per cycle keeps moving while it
     improves and reaches the extremes at a fraction of the full-row
     scan cost. *)
  let d_end =
    descend_by ~probe:false ~window:4 t (line_min (fun l -> l.l_d)) start
  in
  let e_end =
    descend_by ~probe:false ~window:4 t (line_min (fun l -> l.l_e)) start
  in
  (d_end, e_end)

(* The Pareto front over every scanned point, materialized as
   candidates.  Sort-sweep on (d, e) with a full deterministic
   tie-break so the survivor among duplicates is stable. *)
let front t =
  let points = ref [] in
  Hashtbl.iter
    (fun k l ->
      for i = 0 to nv t - 1 do
        points := (l.l_d.(i), l.l_e.(i), k, i) :: !points
      done)
    t.lines;
  let sorted =
    List.sort
      (fun (d1, e1, k1, i1) (d2, e2, k2, i2) ->
        let c = compare d1 d2 in
        if c <> 0 then c
        else
          let c = compare e1 e2 in
          if c <> 0 then c else compare (k1, i1) (k2, i2))
      !points
  in
  let rec sweep best_e acc = function
    | [] -> List.rev acc
    | (_, e, k, i) :: rest ->
      if e < best_e then sweep e ((k, i) :: acc) rest
      else sweep best_e acc rest
  in
  List.map (fun (k, i) -> candidate t k i) (sweep infinity [] sorted)

(* Package the search outcome in the common result shape.  A heuristic
   decides exactly the points it scans. *)
let result t =
  match t.best with
  | None -> invalid_arg "Line_cache.result: nothing evaluated"
  | Some (k, i, _) ->
    { Exhaustive.best = candidate t k i;
      evaluated = t.evaluated;
      pruned = 0;
      skipped = 0;
      considered = t.evaluated;
      levels = t.setup.Space.levels;
      pins = t.setup.Space.pins }
