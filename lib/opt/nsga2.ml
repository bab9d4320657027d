(* NSGA-II over the co-optimization space, gated by the exhaustive
   oracle (test/test_moo.ml, bench moo).

   The genome is the four grid indices (n_r, N_pre, N_wr, V_SSC);
   fitness is the bi-objective vector (d_array, e_total) read off the
   batched scan kernel through {!Line_cache} — evaluating an individual
   prices its geometry's whole V_SSC line once, so the energy-delay
   front information the selection needs arrives at exhaustive-kernel
   throughput.  Selection is Deb's crowded non-dominated sort
   ({!Moo.fast_nondominated_sort} / {!Moo.crowding_distance}) with
   fully deterministic tie-breaks (rank, then crowding, then index).

   Determinism at any [--jobs]: every stochastic draw comes from a
   per-individual RNG stream seeded as [seed + 1021 * (gen * pop + i +
   1)] (the per-batch idiom {!Yield_mc} uses), consumed on the calling
   domain; parallelism only touches the pure line evaluations, which
   {!Line_cache} folds in request order.  Same seed, same population,
   same winner — bit for bit — at jobs 1, 2, 4, or 64.

   After the evolutionary phase the incumbent's geometry is polished by
   {!Line_cache.descend} (memetic step): the GA reliably lands in the
   global basin with a few percent of the space scanned, and the
   descent walks the remaining grid steps, which is what holds
   winner-regret at zero against the oracle. *)

type individual = {
  g : Line_cache.key;
  v : int;  (* V_SSC index *)
}

let run ~pop ~generations ?space ?objective ?levels ?w ?budget
    ?(seed = 42) ?deadline ~env ~capacity_bits ~method_ () =
  if pop < 4 then invalid_arg "Nsga2.search: pop must be >= 4";
  let lc =
    Line_cache.create ?space ?objective ?levels ?w ?deadline
      ~env ~capacity_bits ~method_ ~name:"nsga2" ()
  in
  let nv = Line_cache.nv lc in
  let n_nr = Line_cache.n_nr lc in
  let n_np = Line_cache.n_pre lc in
  let n_nw = Line_cache.n_wr lc in
  let space_points = n_nr * n_np * n_nw * nv in
  (* 2.5% of the space by default: together with the polish rows this
     keeps the measured total under the bench gate's 5%-of-oracle
     ceiling at every Table 4 capacity. *)
  let budget =
    match budget with
    | Some b -> b
    | None -> max (6 * pop * nv) (space_points * 5 / 200)
  in
  (* Reserve the budget tail for the descent polish: the GA phase stops
     at 60%, descent rows take the rest (and the gate in bench moo
     checks the measured total). *)
  let ga_budget = budget * 3 / 5 in
  let stream gen i =
    Numerics.Rng.create ~seed:(seed + (1021 * ((gen * pop) + i + 1)))
  in
  let random_individual rng =
    { g =
        { Line_cache.nr_i = Numerics.Rng.int_below rng n_nr;
          n_pre_i = Numerics.Rng.int_below rng n_np;
          n_wr_i = Numerics.Rng.int_below rng n_nw };
      v = Numerics.Rng.int_below rng nv }
  in
  let evaluate inds =
    Line_cache.ensure lc
      (Array.to_list (Array.map (fun ind -> ind.g) inds))
  in
  let objectives inds =
    Array.map
      (fun ind ->
        let d, e = Line_cache.point lc ind.g ind.v in
        [| d; e |])
      inds
  in
  (* rank + crowding for a whole population, aligned by index. *)
  let rank_and_crowd pts =
    let rank = Moo.fast_nondominated_sort pts in
    let crowd = Array.make (Array.length pts) 0.0 in
    let max_rank = Array.fold_left max 0 rank in
    for r = 0 to max_rank do
      let members =
        Array.of_list
          (List.filter
             (fun i -> rank.(i) = r)
             (List.init (Array.length pts) Fun.id))
      in
      if Array.length members > 0 then begin
        let d = Moo.crowding_distance pts members in
        Array.iteri (fun j i -> crowd.(i) <- d.(j)) members
      end
    done;
    (rank, crowd)
  in
  (* Crowded-comparison winner: lower rank, then larger crowding, then
     lower index (the deterministic tie-break). *)
  let better rank crowd a b =
    if rank.(a) <> rank.(b) then rank.(a) < rank.(b)
    else if crowd.(a) <> crowd.(b) then crowd.(a) > crowd.(b)
    else a < b
  in
  let mutate_gene rng dim i =
    if dim <= 1 then i
    else if Numerics.Rng.uniform rng < 0.5 then begin
      (* local step of 1 or 2 grid points, reflected at the edges *)
      let step = 1 + Numerics.Rng.int_below rng 2 in
      let dir = if Numerics.Rng.uniform rng < 0.5 then -1 else 1 in
      let j = i + (dir * step) in
      if j < 0 then min (dim - 1) (-j)
      else if j >= dim then max 0 ((2 * (dim - 1)) - j)
      else j
    end
    else Numerics.Rng.int_below rng dim
  in
  let population = ref (Array.init pop (fun i -> random_individual (stream 0 i))) in
  evaluate !population;
  let gen = ref 1 in
  let continue_ = ref (generations > 0) in
  while !continue_ do
    let parents = !population in
    let pts = objectives parents in
    let rank, crowd = rank_and_crowd pts in
    let offspring =
      Array.init pop (fun i ->
          let rng = stream !gen i in
          let pick () =
            let a = Numerics.Rng.int_below rng pop in
            let b = Numerics.Rng.int_below rng pop in
            if better rank crowd a b then parents.(a) else parents.(b)
          in
          let p1 = pick () in
          let p2 = pick () in
          let child =
            if Numerics.Rng.uniform rng < 0.9 then
              (* uniform crossover, gene by gene *)
              let take a b = if Numerics.Rng.uniform rng < 0.5 then a else b in
              { g =
                  { Line_cache.nr_i =
                      take p1.g.Line_cache.nr_i p2.g.Line_cache.nr_i;
                    n_pre_i = take p1.g.Line_cache.n_pre_i p2.g.Line_cache.n_pre_i;
                    n_wr_i = take p1.g.Line_cache.n_wr_i p2.g.Line_cache.n_wr_i };
                v = take p1.v p2.v }
            else p1
          in
          let maybe dim i =
            if Numerics.Rng.uniform rng < 0.25 then mutate_gene rng dim i else i
          in
          { g =
              { Line_cache.nr_i = maybe n_nr child.g.Line_cache.nr_i;
                n_pre_i = maybe n_np child.g.Line_cache.n_pre_i;
                n_wr_i = maybe n_nw child.g.Line_cache.n_wr_i };
            v = maybe nv child.v })
    in
    evaluate offspring;
    let combined = Array.append parents offspring in
    let pts = objectives combined in
    let rank, crowd = rank_and_crowd pts in
    let order =
      List.sort
        (fun a b -> if better rank crowd a b then -1 else 1)
        (List.init (Array.length combined) Fun.id)
    in
    population :=
      Array.of_list
        (List.map (fun i -> combined.(i)) (List.filteri (fun j _ -> j < pop) order));
    incr gen;
    if !gen > generations || Line_cache.evaluated lc >= ga_budget then
      continue_ := false
  done;
  (* Memetic polish: coordinate descent from the incumbent's geometry
     on the vssc-minimized landscape. *)
  (match Line_cache.best lc with
  | Some (k, _, _) ->
    let k' = Line_cache.descend lc k in
    ignore (Line_cache.descend_edges lc k')
  | None -> ());
  lc

let search_front ?space ?levels ~env ~capacity_bits ~method_ () =
  let lc =
    run ~pop:24 ~generations:40 ?space ?levels ~env ~capacity_bits ~method_ ()
  in
  (Line_cache.result lc, Line_cache.front lc)

let search ?space ?objective ?w ?(pop = 24) ?(generations = 40) ?budget
    ?seed ?deadline ~env ~capacity_bits ~method_ () =
  Line_cache.result
    (run ~pop ~generations ?space ?objective ?w ?budget ?seed ?deadline
       ~env ~capacity_bits ~method_ ())
