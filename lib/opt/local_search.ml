(* Local search = deterministic restarts of the shared coordinate
   descent ({!Line_cache.descend}).  The restarts share one line cache,
   so later descents reuse every line an earlier one priced, and the
   result is the cache's global incumbent. *)

(* Deterministic low-discrepancy spread of starting geometries: each
   coordinate walks its own irrational stride so restarts explore
   genuinely different basins (a single diagonal would revisit the same
   one). *)
let start lc k =
  let pick n stride =
    let frac = Float.rem ((float_of_int k *. stride) +. (0.5 *. stride)) 1.0 in
    min (n - 1) (int_of_float (frac *. float_of_int n))
  in
  { Line_cache.nr_i = pick (Line_cache.n_nr lc) 0.569840;
    n_pre_i = pick (Line_cache.n_pre lc) 0.362547;
    n_wr_i = pick (Line_cache.n_wr lc) 0.914107 }

let search_timer = Obs.Histogram.timer "local_search.search"

let search ?space ?objective ?levels ?pool ?w ?deadline
    ?(restarts = 4) ~env ~capacity_bits ~method_ () =
  let lc =
    Line_cache.create ?space ?objective ?levels ?pool ?w ?deadline
      ~env ~capacity_bits ~method_ ~name:"local_search" ()
  in
  Obs.Histogram.span search_timer (fun () ->
      for k = 0 to restarts - 1 do
        ignore (Line_cache.descend lc (start lc k))
      done);
  Line_cache.result lc
