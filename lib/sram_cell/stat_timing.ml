type distribution = {
  samples : float array;
  mu : float;
  sigma : float;
}

let summarize values =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  { samples = sorted;
    mu = Numerics.Stats.mean sorted;
    sigma = Numerics.Stats.stddev sorted }

let percentile d ~p = Numerics.Stats.percentile d.samples ~p

let read_current_distribution ~n ~nfet ~condition () =
  assert (n > 0);
  let rng = Numerics.Rng.create ~seed:31 in
  let samples =
    Array.init n (fun _ ->
        let access = Finfet.Variation.sample_device rng nfet in
        let pull_down = Finfet.Variation.sample_device rng nfet in
        Finfet.Calibration.stack_read_current ~access ~pull_down
          ~vwl:condition.Sram6t.vwl ~vbl:condition.Sram6t.vbl
          ~vddc:condition.Sram6t.vddc ~vssc:condition.Sram6t.vssc)
  in
  summarize samples

type guardband = {
  nominal_delay : float;
  mean_delay : float;
  k_sigma_delay : float;
  derate : float;
}

let bl_delay_guardband ?(k = 3.0) ~cell ~column ~condition () =
  let c_bl = Column.bl_capacitance ~cell column in
  let to_delay i =
    if i <= 0.0 then infinity else c_bl *. Finfet.Tech.delta_v_sense /. i
  in
  let currents =
    read_current_distribution ~n:200 ~nfet:cell.Finfet.Variation.access_l ~condition ()
  in
  let delays = summarize (Array.map to_delay currents.samples) in
  let nominal_delay = Column.analytic_delay ~cell column condition in
  (* The slow corner is the current distribution's low tail; use the
     delay distribution directly so the nonlinearity of 1/I is kept. *)
  let k_sigma_delay = delays.mu +. (k *. delays.sigma) in
  { nominal_delay;
    mean_delay = delays.mu;
    k_sigma_delay;
    derate = k_sigma_delay /. nominal_delay }
