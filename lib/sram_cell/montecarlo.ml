type margin_samples = {
  hsnm : float array;
  rsnm : float array;
  wm : float array;
}

let sample_margins ?sigma_vt ?(points = 41) ~seed ~n ~nfet ~pfet
    ~read_condition ~write_condition () =
  assert (n > 0);
  let rng = Numerics.Rng.create ~seed in
  let hsnm = Array.make n 0.0 in
  let rsnm = Array.make n 0.0 in
  let wm = Array.make n 0.0 in
  let vdd = read_condition.Sram6t.vdd in
  for i = 0 to n - 1 do
    let cell = Finfet.Variation.sample_cell ?sigma_vt rng ~nfet ~pfet in
    hsnm.(i) <- Margins.hold_snm ~points ~cell vdd;
    rsnm.(i) <- Margins.read_snm ~points ~cell read_condition;
    wm.(i) <- Margins.write_margin ~cell write_condition
  done;
  { hsnm; rsnm; wm }

type yield_summary = {
  mu_hsnm : float;
  sigma_hsnm : float;
  mu_rsnm : float;
  sigma_rsnm : float;
  mu_wm : float;
  sigma_wm : float;
  worst_mu_minus_k_sigma : float;
}

let summarize ~k { hsnm; rsnm; wm } =
  let mk xs = (Numerics.Stats.mean xs, Numerics.Stats.stddev xs) in
  let mu_hsnm, sigma_hsnm = mk hsnm in
  let mu_rsnm, sigma_rsnm = mk rsnm in
  let mu_wm, sigma_wm = mk wm in
  let worst =
    min
      (Numerics.Stats.mu_minus_k_sigma hsnm ~k)
      (min
         (Numerics.Stats.mu_minus_k_sigma rsnm ~k)
         (Numerics.Stats.mu_minus_k_sigma wm ~k))
  in
  { mu_hsnm; sigma_hsnm; mu_rsnm; sigma_rsnm; mu_wm; sigma_wm;
    worst_mu_minus_k_sigma = worst }

let passes_k_sigma ~k samples = (summarize ~k samples).worst_mu_minus_k_sigma >= 0.0
