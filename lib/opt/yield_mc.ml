type config = {
  k : float;
  samples : int;
  sigma_vt : float;
  seed : int;
  points : int;
}

let default_config =
  { k = 3.0; samples = 25; sigma_vt = Finfet.Variation.sigma_vt_default;
    seed = 7; points = 31 }

let devices_of flavor =
  let lib = Lazy.force Finfet.Library.default in
  (Finfet.Library.nfet lib flavor, Finfet.Library.pfet lib flavor)

let mu_minus_k_sigma cfg values = Numerics.Stats.mu_minus_k_sigma values ~k:cfg.k

(* Draw the margin samples for one constraint evaluation: one RNG
   stream from the config's seed. *)
let samples_at cfg ~flavor ~vddc ~vssc ~vwl =
  let nfet, pfet = devices_of flavor in
  Sram_cell.Montecarlo.sample_margins ~sigma_vt:cfg.sigma_vt
    ~points:cfg.points ~seed:cfg.seed ~n:cfg.samples ~nfet ~pfet
    ~read_condition:(Sram_cell.Sram6t.read ~vddc ~vssc ())
    ~write_condition:(Sram_cell.Sram6t.write0 ~vwl ())
    ()

(* One constraint evaluation: sample margins at the given rails. *)
let sample_worst cfg ~flavor ~vddc ~vssc ~vwl =
  let samples = samples_at cfg ~flavor ~vddc ~vssc ~vwl in
  min
    (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.hsnm)
    (min
       (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.rsnm)
       (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.wm))

type key = {
  k_flavor : Finfet.Library.flavor;
  k_vddc : float;
  k_vssc : float;
  k_vwl : float;
  k_cfg : config;
}

let cache : (key, float) Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield_mc.worst_margin" ~capacity:512 ()

let worst_margin_timer = Obs.Histogram.timer "yield_mc.worst_margin"

let worst_margin ?(config = default_config) ~flavor ~vddc ~vssc ~vwl () =
  let key =
    { k_flavor = flavor; k_vddc = vddc; k_vssc = vssc; k_vwl = vwl; k_cfg = config }
  in
  Runtime.Memo.find_or_compute cache key (fun () ->
      Obs.Histogram.span worst_margin_timer (fun () ->
          sample_worst config ~flavor ~vddc ~vssc ~vwl))

type levels = {
  vddc_min : float;
  vwl_min : float;
  achieved_margin : float;
}

(* Grid walk upward on the 10 mV grid until the per-margin k-sigma
   condition holds; the margins' means are monotone in their own voltage,
   so the first passing grid point is the minimum. *)
let grid_search ~lo ~hi passes =
  let rec walk v =
    if v > hi then hi
    else if passes v then v
    else walk (v +. Yield.voltage_grid)
  in
  walk lo

let solve ?(config = default_config) ~flavor () =
  let margins_at ~vddc ~vwl = samples_at config ~flavor ~vddc ~vssc:0.0 ~vwl in
  let vdd = Finfet.Tech.vdd_nominal in
  (* RSNM pins V_DDC (WL level is irrelevant to the read distribution). *)
  let vddc_min =
    grid_search ~lo:vdd ~hi:0.80 (fun vddc ->
        let s = margins_at ~vddc ~vwl:vdd in
        mu_minus_k_sigma config s.Sram_cell.Montecarlo.rsnm >= 0.0)
  in
  (* WM pins V_WL. *)
  let vwl_min =
    grid_search ~lo:vdd ~hi:0.85 (fun vwl ->
        let s = margins_at ~vddc:vddc_min ~vwl in
        mu_minus_k_sigma config s.Sram_cell.Montecarlo.wm >= 0.0)
  in
  { vddc_min;
    vwl_min;
    achieved_margin =
      worst_margin ~config ~flavor ~vddc:vddc_min ~vssc:0.0 ~vwl:vwl_min () }
