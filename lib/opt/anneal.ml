type schedule = {
  initial_temperature : float;
  cooling : float;
  steps : int;
}

let default_schedule =
  { initial_temperature = 0.3; cooling = 0.995; steps = 2000 }

type state = {
  vssc_i : int;
  nr_i : int;
  n_pre_i : int;
  n_wr_i : int;
}

let search ?space ?objective ?levels ?pool ?w ?deadline
    ?(schedule = default_schedule) ~seed ~env ~capacity_bits ~method_ () =
  let lc =
    Line_cache.create ?space ?objective ?levels ?pool ?w ?deadline
      ~env ~capacity_bits ~method_ ~name:"anneal" ()
  in
  let n_vssc = Line_cache.nv lc and n_nr = Line_cache.n_nr lc in
  let n_pre = Line_cache.n_pre lc and n_wr = Line_cache.n_wr lc in
  let rng = Numerics.Rng.create ~seed in
  let score s =
    Line_cache.score lc
      { Line_cache.nr_i = s.nr_i; n_pre_i = s.n_pre_i; n_wr_i = s.n_wr_i }
      s.vssc_i
  in
  let random_state () =
    { vssc_i = Numerics.Rng.int_below rng n_vssc;
      nr_i = Numerics.Rng.int_below rng n_nr;
      n_pre_i = Numerics.Rng.int_below rng n_pre;
      n_wr_i = Numerics.Rng.int_below rng n_wr }
  in
  let perturb state =
    (* Move one coordinate by +-1 (local move); occasionally jump. *)
    if Numerics.Rng.uniform rng < 0.1 then random_state ()
    else begin
      let bump i n =
        let d = if Numerics.Rng.uniform rng < 0.5 then -1 else 1 in
        max 0 (min (n - 1) (i + d))
      in
      match Numerics.Rng.int_below rng 4 with
      | 0 -> { state with vssc_i = bump state.vssc_i n_vssc }
      | 1 -> { state with nr_i = bump state.nr_i n_nr }
      | 2 -> { state with n_pre_i = bump state.n_pre_i n_pre }
      | _ -> { state with n_wr_i = bump state.n_wr_i n_wr }
    end
  in
  let current = ref (random_state ()) in
  let current_score = ref (score !current) in
  let temperature = ref schedule.initial_temperature in
  for _ = 1 to schedule.steps do
    let next = perturb !current in
    let s = score next in
    let relative = (s -. !current_score) /. !current_score in
    let accept =
      relative <= 0.0
      || Numerics.Rng.uniform rng < exp (-.relative /. max !temperature 1e-6)
    in
    if accept then begin
      current := next;
      current_score := s
    end;
    temperature := !temperature *. schedule.cooling
  done;
  (* The cache's incumbent: the best point on any line the walk
     visited, at least as good as the best point it stood on. *)
  Line_cache.result lc
