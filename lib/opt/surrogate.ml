(* Scalarized surrogate search: fit a cheap global model of the
   objective over the (normalized) geometry axes, spend evaluations
   where the model says the optimum plausibly hides, and let the
   exhaustive engine handle spaces too small to be worth modeling.

   The response surface is a full quadratic in the three normalized
   geometry coordinates (10 coefficients), least-squares fitted
   ({!Numerics.Lu.solve_least_squares}) to log-scores of every scanned
   line's V_SSC minimum — the V_SSC axis is minimized out exactly by
   the batched line scan ({!Line_cache}), so the model only has to
   capture the geometry landscape, which log-EDP makes near-quadratic.
   Acquisition is expected improvement with a distance-inflated
   uncertainty: sigma(x) = rms residual * (0.1 + distance to the
   nearest sample), so unexplored regions stay attractive even where
   the mean model is confident.  All draws come from one seeded
   {!Numerics.Rng} stream on the calling domain; line evaluations are
   the only parallel work — bit-identical at any [--jobs].

   Like {!Nsga2}, the sampling phase ends with a coordinate-descent
   polish from the incumbent ({!Line_cache.descend}), which drives
   winner-regret against the exhaustive oracle to zero. *)

let default_fallback_threshold = 2048

(* phi(x): quadratic feature vector of the 3 normalized coordinates. *)
let features x =
  [| 1.0; x.(0); x.(1); x.(2);
     x.(0) *. x.(0); x.(1) *. x.(1); x.(2) *. x.(2);
     x.(0) *. x.(1); x.(0) *. x.(2); x.(1) *. x.(2) |]

let predict coeffs x =
  let phi = features x in
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. phi.(i))) coeffs;
  !acc

let normal_pdf z = exp (-0.5 *. z *. z) /. sqrt (2.0 *. Float.pi)

let search_front ?space ?objective ?levels ?pool ?w ?(init = 16)
    ?(iterations = 48) ?budget ?(seed = 42)
    ?(fallback_threshold = default_fallback_threshold) ?deadline ~env
    ~capacity_bits ~method_ () =
  let space_v = match space with Some s -> s | None -> Space.default in
  let size = Space.size ?w space_v ~capacity_bits method_ in
  if size <= fallback_threshold then begin
    (* Below the threshold the exhaustive engine is cheaper than any
       model: run it outright (unpruned, so the full candidate list
       feeds the front). *)
    let result, all =
      Exhaustive.search_all ?space ?objective ?levels ?pool ?w ?deadline ~env
        ~capacity_bits ~method_ ()
    in
    (result, Pareto.front all)
  end
  else begin
    let lc =
      Line_cache.create ?space ?objective ?levels ?pool ?w ?deadline
        ~env ~capacity_bits ~method_ ~name:"surrogate" ()
    in
    let nv = Line_cache.nv lc in
    let n_nr = Line_cache.n_nr lc in
    let n_np = Line_cache.n_pre lc in
    let n_nw = Line_cache.n_wr lc in
    let n_geoms = n_nr * n_np * n_nw in
    let budget =
      match budget with
      | Some b -> b
      | None -> max ((init + iterations + 8) * nv) (n_geoms * nv * 2 / 100)
    in
    let sample_budget = budget * 3 / 5 in
    let rng = Numerics.Rng.create ~seed in
    let key_of_index i =
      { Line_cache.nr_i = i mod n_nr;
        n_pre_i = i / n_nr mod n_np;
        n_wr_i = i / (n_nr * n_np) }
    in
    let index_of_key (k : Line_cache.key) =
      k.Line_cache.nr_i + (n_nr * (k.Line_cache.n_pre_i + (n_np * k.Line_cache.n_wr_i)))
    in
    let coord dim i =
      if dim <= 1 then 0.5 else float_of_int i /. float_of_int (dim - 1)
    in
    let x_of_key (k : Line_cache.key) =
      [| coord n_nr k.Line_cache.nr_i;
         coord n_np k.Line_cache.n_pre_i;
         coord n_nw k.Line_cache.n_wr_i |]
    in
    (* Initial design: half low-discrepancy (per-axis irrational
       strides, the local search's restart idiom), half uniform draws —
       distinct keys, deterministic. *)
    let initial =
      let n = max init 10 in
      let seen = Hashtbl.create 32 in
      let acc = ref [] in
      let add k =
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          acc := k :: !acc
        end
      in
      let pick dim stride j =
        let frac =
          Float.rem ((float_of_int j *. stride) +. (0.5 *. stride)) 1.0
        in
        min (dim - 1) (int_of_float (frac *. float_of_int dim))
      in
      for j = 0 to (n / 2) - 1 do
        add
          { Line_cache.nr_i = pick n_nr 0.754877 j;
            n_pre_i = pick n_np 0.569840 j;
            n_wr_i = pick n_nw 0.914107 j }
      done;
      let guard = ref 0 in
      while List.length !acc < n && !guard < 100 * n do
        incr guard;
        add (key_of_index (Numerics.Rng.int_below rng n_geoms))
      done;
      List.rev !acc
    in
    Line_cache.ensure lc initial;
    let sampled = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace sampled (index_of_key k) k) initial;
    let sampled_list () =
      Hashtbl.fold (fun i k acc -> (i, k) :: acc) sampled []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let it = ref 0 in
    let stop = ref false in
    while (not !stop) && !it < iterations do
      if Line_cache.evaluated lc + nv > sample_budget then stop := true
      else begin
        let samples = sampled_list () in
        let m = List.length samples in
        let next =
          let fitted =
            try
              let rows =
                Array.of_list
                  (List.map (fun (_, k) -> features (x_of_key k)) samples)
              in
              let ys =
                Array.of_list
                  (List.map
                     (fun (_, k) -> log (snd (Line_cache.line_best lc k)))
                     samples)
              in
              if m < Array.length rows.(0) then None
              else
                let coeffs =
                  Numerics.Lu.solve_least_squares (Numerics.Matrix.of_arrays rows) ys
                in
                let resid = ref 0.0 in
                List.iteri
                  (fun j (_, k) ->
                    let r = ys.(j) -. predict coeffs (x_of_key k) in
                    resid := !resid +. (r *. r))
                  samples;
                let s = sqrt (!resid /. float_of_int m) in
                Some (coeffs, Float.max s 1e-6)
            with Numerics.Lu.Singular -> None
          in
          match fitted with
          | None ->
            (* Degenerate fit: spend the evaluation on exploration. *)
            let guard = ref 0 in
            let k = ref (key_of_index (Numerics.Rng.int_below rng n_geoms)) in
            while Hashtbl.mem sampled (index_of_key !k) && !guard < 1000 do
              incr guard;
              k := key_of_index (Numerics.Rng.int_below rng n_geoms)
            done;
            if Hashtbl.mem sampled (index_of_key !k) then None else Some !k
          | Some (coeffs, s) ->
            let f_best =
              match Line_cache.best lc with
              | Some (_, _, b) -> log b
              | None -> infinity
            in
            let xs = List.map (fun (_, k) -> x_of_key k) samples in
            let best_ei = ref neg_infinity in
            let best_key = ref None in
            for i = 0 to n_geoms - 1 do
              if not (Hashtbl.mem sampled i) then begin
                let k = key_of_index i in
                let x = x_of_key k in
                let mu = predict coeffs x in
                let dmin =
                  List.fold_left
                    (fun acc xo ->
                      let dx = x.(0) -. xo.(0)
                      and dy = x.(1) -. xo.(1)
                      and dz = x.(2) -. xo.(2) in
                      Float.min acc
                        (sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))))
                    infinity xs
                in
                let sigma = (s *. (0.1 +. dmin)) +. 1e-12 in
                let z = (f_best -. mu) /. sigma in
                let ei =
                  ((f_best -. mu) *. Numerics.Stats.normal_cdf z)
                  +. (sigma *. normal_pdf z)
                in
                if ei > !best_ei then begin
                  best_ei := ei;
                  best_key := Some k
                end
              end
            done;
            !best_key
        in
        (match next with
        | None -> stop := true
        | Some k ->
          Line_cache.ensure lc [ k ];
          Hashtbl.replace sampled (index_of_key k) k);
        incr it
      end
    done;
    (* Polish: coordinate descent from the incumbent. *)
    (match Line_cache.best lc with
    | Some (k, _, _) ->
      let k' = Line_cache.descend lc k in
      ignore (Line_cache.descend_edges lc k')
    | None -> ());
    (Line_cache.result lc, Line_cache.front lc)
  end

let search ?space ?objective ?levels ?pool ?w ?init ?iterations
    ?budget ?seed ?fallback_threshold ?deadline ~env ~capacity_bits ~method_ ()
    =
  fst
    (search_front ?space ?objective ?levels ?pool ?w ?init
       ?iterations ?budget ?seed ?fallback_threshold ?deadline ~env
       ~capacity_bits ~method_ ())
