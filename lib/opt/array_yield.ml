let gaussian_ok samples =
  let mu = Numerics.Stats.mean samples in
  let sigma = Numerics.Stats.stddev samples in
  if sigma <= 0.0 then if mu >= 0.0 then 1.0 else 0.0
  else Numerics.Stats.normal_cdf ~mu ~sigma 0.0 |> fun below -> 1.0 -. below

let cell_failure_probability (m : Sram_cell.Montecarlo.margin_samples) =
  let ok =
    gaussian_ok m.Sram_cell.Montecarlo.hsnm
    *. gaussian_ok m.Sram_cell.Montecarlo.rsnm
    *. gaussian_ok m.Sram_cell.Montecarlo.wm
  in
  1.0 -. ok

let array_yield ?(spare_rows = 0) ~geometry ~cell_fail () =
  assert (cell_fail >= 0.0 && cell_fail <= 1.0 && spare_rows >= 0);
  let nc = geometry.Array_model.Geometry.nc in
  let nr = geometry.Array_model.Geometry.nr in
  (* log1p keeps (1-p)^nc accurate for the tiny p this analysis lives on. *)
  let p_row = 1.0 -. exp (float_of_int nc *. log1p (-.cell_fail)) in
  Numerics.Stats.binomial_cdf ~n:nr ~p:p_row spare_rows

type solved = {
  vddc_min : float;
  achieved_yield : float;
  cell_fail : float;
}

let solve_vddc ?(spare_rows = 0) ~flavor ~geometry () =
  let config = Yield_mc.default_config in
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib flavor in
  let pfet = Finfet.Library.pfet lib flavor in
  let evaluate vddc =
    let samples =
      Sram_cell.Montecarlo.sample_margins ~sigma_vt:config.Yield_mc.sigma_vt
        ~points:config.Yield_mc.points ~seed:config.Yield_mc.seed
        ~n:config.Yield_mc.samples ~nfet ~pfet
        ~read_condition:(Sram_cell.Sram6t.read ~vddc ())
        ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:vddc ())
        ()
    in
    let cell_fail = cell_failure_probability samples in
    (cell_fail, array_yield ~spare_rows ~geometry ~cell_fail ())
  in
  let rec walk vddc =
    let cell_fail, achieved = evaluate vddc in
    if achieved >= 0.99 || vddc >= 0.80 then
      { vddc_min = vddc; achieved_yield = achieved; cell_fail }
    else walk (vddc +. Yield.voltage_grid)
  in
  walk Finfet.Tech.vdd_nominal
