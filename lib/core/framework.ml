type config = {
  flavor : Finfet.Library.flavor;
  method_ : Opt.Space.method_;
}

let all_configs =
  [ { flavor = Finfet.Library.Lvt; method_ = Opt.Space.M1 };
    { flavor = Finfet.Library.Hvt; method_ = Opt.Space.M1 };
    { flavor = Finfet.Library.Lvt; method_ = Opt.Space.M2 };
    { flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 } ]

let config_name { flavor; method_ } =
  Printf.sprintf "6T-%s-%s"
    (Finfet.Library.flavor_to_string flavor)
    (Opt.Space.method_name method_)

type optimized = {
  capacity_bits : int;
  config : config;
  result : Opt.Exhaustive.result;
}

(* A search space's contents, so that any two [Opt.Space.t] values
   spanning the same grid memoize to the same key.  Each V_SSC value is
   keyed by its exact bits: the answer carries the winner's V_SSC, so
   two grids that differ in any bit — [-0.0] against [0.0], or values
   a few uV apart — have different answers and must not share an
   entry.  ([compare] and [Hashtbl.hash] equate [-0.0] with [0.0], so
   the key holds the bits, not the floats.)  The Table 4 sweep,
   [Space.reduced] and sub-grids sliced from a grid are bit-exact
   copies of it, and still share entries. *)
type space_sig = {
  s_vssc : int64 list;
  s_nr : int list;
  s_n_pre : int list;
  s_n_wr : int list;
}

let space_sig (s : Opt.Space.t) =
  { s_vssc =
      List.map Int64.bits_of_float (Array.to_list s.Opt.Space.vssc_values);
    s_nr = Array.to_list s.Opt.Space.nr_values;
    s_n_pre = Array.to_list s.Opt.Space.n_pre_values;
    s_n_wr = Array.to_list s.Opt.Space.n_wr_values }

type cache_key = {
  k_capacity : int;
  k_config : config;
  k_objective : Opt.Objective.t;
  k_accounting : Array_model.Array_eval.accounting;
  k_w : int;
  k_space : space_sig;
  k_strategy : Opt.Strategy.t;
  (* Seed and budget only distinguish runs of the stochastic engines;
     for the deterministic ones they are normalized to the defaults so
     a request that spells them out still hits the cache. *)
  k_seed : int;
  k_budget : int;  (* 0 = engine default *)
}

let cache : (cache_key, optimized) Runtime.Memo.t =
  Runtime.Memo.create ~name:"framework.optimize" ~capacity:256 ()

(* Disk tier under --cache-dir: a full optimized design per key, so a
   Table 4 sweep repeated across processes costs one replay.  The key
   string spells out the whole space grid, each voltage in [%.17g],
   which round-trips every double ([-0.0] included) — no hashing, so
   distinct grids cannot collide. *)
let disk_cache = Persist.Cache.create ~name:"framework.optimize" ()

let disk_key (k : cache_key) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s|cap=%d|%s|%s|w=%d|" (config_name k.k_config)
       k.k_capacity
       (Opt.Objective.name k.k_objective)
       (match k.k_accounting with
       | Array_model.Array_eval.Paper_strict -> "paper"
       | Array_model.Array_eval.Physical -> "physical")
       k.k_w);
  List.iter
    (fun v ->
      Buffer.add_string b (Printf.sprintf "%.17g," (Int64.float_of_bits v)))
    k.k_space.s_vssc;
  Buffer.add_char b '|';
  let ints xs = List.iter (fun v -> Buffer.add_string b (string_of_int v ^ ",")) xs in
  ints k.k_space.s_nr;
  Buffer.add_char b '|';
  ints k.k_space.s_n_pre;
  Buffer.add_char b '|';
  ints k.k_space.s_n_wr;
  (* Exhaustive keys keep their historical spelling, so disk caches
     written before the strategy dispatch existed stay valid; the
     other engines get an explicit suffix. *)
  if k.k_strategy <> Opt.Strategy.Exhaustive then
    Buffer.add_string b
      (Printf.sprintf "|strategy=%s|seed=%d|budget=%d"
         (Opt.Strategy.name k.k_strategy) k.k_seed k.k_budget);
  Buffer.contents b

let disk_load (k : cache_key) =
  match Persist.Cache.find disk_cache (disk_key k) with
  | None -> None
  | Some j ->
    Option.map
      (fun result ->
        { capacity_bits = k.k_capacity; config = k.k_config; result })
      (Opt.Exhaustive.result_of_json j)

let disk_store (k : cache_key) (o : optimized) =
  Persist.Cache.add disk_cache (disk_key k)
    (Opt.Exhaustive.result_to_json o.result)

let env_cache :
  (Finfet.Library.flavor * Array_model.Array_eval.accounting,
   Array_model.Array_eval.env)
  Runtime.Memo.t =
  Runtime.Memo.create ~name:"framework.env" ~capacity:8 ()

let env_for ~flavor ~accounting =
  Runtime.Memo.find_or_compute env_cache (flavor, accounting) (fun () ->
      Array_model.Array_eval.make_env ~accounting ~cell_flavor:flavor ())

(* The staging context registered for a memoized environment: because
   [env_for] returns the same physical env value per (flavor,
   accounting), every search the framework launches against it —
   across capacities, configs, sweeps and serve requests — shares its
   staged grids.  A config pair (M1/M2 of one flavor) shares its grid
   outright, so the pair stages it once. *)
let stage_ctx_for ~flavor ~accounting =
  Array_model.Array_eval.ctx_for (env_for ~flavor ~accounting)

let optimize_timer = Obs.Histogram.timer "framework.optimize"
let sweep_timer = Obs.Histogram.timer "framework.sweep"

let optimize ?space ?(objective = Opt.Objective.Energy_delay_product)
    ?(accounting = Array_model.Array_eval.Paper_strict) ?pool ?(w = 64)
    ?deadline ?(strategy = Opt.Strategy.Exhaustive)
    ?(rng_seed = Opt.Strategy.default_seed) ?budget ~capacity_bits ~config ()
    =
  (match budget with
   | Some b when b < 1 -> invalid_arg "Framework.optimize: budget must be positive"
   | _ -> ());
  let stochastic = not (Opt.Strategy.deterministic strategy) in
  let key =
    { k_capacity = capacity_bits; k_config = config; k_objective = objective;
      k_accounting = accounting; k_w = w;
      k_space =
        space_sig (match space with Some s -> s | None -> Opt.Space.default);
      k_strategy = strategy;
      k_seed = (if stochastic then rng_seed else Opt.Strategy.default_seed);
      k_budget =
        (if stochastic then Option.value ~default:0 budget else 0) }
  in
  (* The key canonicalizes the space's contents, so custom-space runs
     (e.g. [headline ~space:Opt.Space.reduced], the benchmark's staple)
     memoize just like default-space ones. *)
  Runtime.Memo.find_or_compute_tiered cache key ~load:disk_load
    ~store:disk_store (fun () ->
      Obs.Log.debug ~section:"framework"
        "optimize miss: %s %d bits — running %s search"
        (config_name config) capacity_bits
        (Opt.Strategy.name strategy);
      Obs.Histogram.span optimize_timer (fun () ->
          let env = env_for ~flavor:config.flavor ~accounting in
          let stage_ctx = Array_model.Array_eval.ctx_for env in
          let result =
            Opt.Strategy.run strategy ?space ~objective ?pool ~w ~stage_ctx
              ?deadline ?budget ~rng_seed ~env ~capacity_bits
              ~method_:config.method_ ()
          in
          { capacity_bits; config; result }))

type explanation = {
  optimized : optimized;
  attribution : Array_model.Array_eval.attribution;
  sensitivity : Opt.Explain.axis list;
  pareto : Opt.Explain.provenance option;
}

let explain ?space ?objective ?(accounting = Array_model.Array_eval.Paper_strict)
    ?w ?deadline ?strategy ?rng_seed ?(pareto = false) ~capacity_bits ~config ()
    =
  let o =
    optimize ?space ?objective ~accounting ?w ?deadline ?strategy ?rng_seed
      ~capacity_bits ~config ()
  in
  let result = o.result in
  let winner = result.Opt.Exhaustive.best in
  (* The memoized env for (flavor, accounting) is the one the search
     priced against, so every number below is the search's own. *)
  let env = env_for ~flavor:config.flavor ~accounting in
  let at =
    Array_model.Array_eval.attribute env winner.Opt.Exhaustive.geometry
      winner.Opt.Exhaustive.assist
  in
  if not (Array_model.Array_eval.attribution_consistent at) then
    Error "attribution terms do not refold to evaluate's totals bit-for-bit"
  else if
    not
      (Int64.equal
         (Int64.bits_of_float at.Array_model.Array_eval.at_metrics.Array_model.Array_eval.edp)
         (Int64.bits_of_float winner.Opt.Exhaustive.metrics.Array_model.Array_eval.edp))
  then Error "fresh evaluate disagrees with the search's staged kernel for the winner"
  else
    let sensitivity =
      Opt.Explain.sensitivity ?space ?objective ~env ~pins:result.Opt.Exhaustive.pins
        ~winner ()
    in
    let pareto =
      if pareto then
        Some
          (Opt.Explain.pareto ~levels:result.Opt.Exhaustive.levels ~env ~capacity_bits
             ~method_:config.method_ ())
      else None
    in
    Ok { optimized = o; attribution = at; sensitivity; pareto }

let paper_capacities =
  List.map (fun bytes -> bytes * 8) [ 128; 256; 1024; 4096; 16384 ]

let sweep_capacities ?pool ~capacities ~configs () =
  Obs.Histogram.span sweep_timer (fun () ->
      List.concat_map
        (fun capacity_bits ->
          List.map
            (fun config -> optimize ?pool ~capacity_bits ~config ())
            configs)
        capacities)

let metrics o = o.result.Opt.Exhaustive.best.Opt.Exhaustive.metrics
let geometry o = o.result.Opt.Exhaustive.best.Opt.Exhaustive.geometry
let assist o = o.result.Opt.Exhaustive.best.Opt.Exhaustive.assist

type headline = {
  avg_edp_reduction : float;
  avg_delay_penalty : float;
  max_delay_penalty : float;
  per_capacity : (int * float * float) list;
}

let headline ?capacities ?space ?accounting () =
  let capacities =
    match capacities with
    | Some c -> c
    | None -> List.map (fun bytes -> bytes * 8) [ 1024; 4096; 16384 ]
  in
  let per_capacity =
    List.map
      (fun capacity_bits ->
        let hvt =
          optimize ?space ?accounting ~capacity_bits
            ~config:{ flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 } ()
        in
        let lvt =
          optimize ?space ?accounting ~capacity_bits
            ~config:{ flavor = Finfet.Library.Lvt; method_ = Opt.Space.M2 } ()
        in
        let mh = metrics hvt and ml = metrics lvt in
        let reduction =
          1.0 -. (mh.Array_model.Array_eval.edp /. ml.Array_model.Array_eval.edp)
        in
        let penalty =
          (mh.Array_model.Array_eval.d_array /. ml.Array_model.Array_eval.d_array)
          -. 1.0
        in
        (capacity_bits, reduction, penalty))
      capacities
  in
  let n = float_of_int (List.length per_capacity) in
  let avg f = List.fold_left (fun acc x -> acc +. f x) 0.0 per_capacity /. n in
  { avg_edp_reduction = avg (fun (_, r, _) -> r);
    avg_delay_penalty = avg (fun (_, _, p) -> p);
    max_delay_penalty =
      List.fold_left (fun acc (_, _, p) -> max acc p) neg_infinity per_capacity;
    per_capacity }
