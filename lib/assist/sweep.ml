type read_point = {
  voltage : float;
  rsnm : float;
  read_current : float;
  bl_delay : float;
}

let reference_column = Array_model.Geometry.create ~nr:64 ~nc:64 ~n_pre:1 ~n_wr:1 ()

let bl_delay_of_current ~flavor current =
  let lib = Lazy.force Finfet.Library.default in
  let dcaps =
    Array_model.Caps.device_caps_of
      ~nfet:(Finfet.Library.nfet lib flavor)
      ~pfet:(Finfet.Library.pfet lib flavor)
      ()
  in
  let c_bl = Array_model.Caps.bl dcaps reference_column in
  if current <= 0.0 then infinity
  else c_bl *. Finfet.Tech.delta_v_sense /. current

let read_sweep ~flavor ~technique ~voltages () =
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib flavor in
  let cell =
    Finfet.Variation.nominal_cell ~nfet ~pfet:(Finfet.Library.pfet lib flavor)
  in
  let point voltage =
    let condition = Technique.read_condition technique ~voltage in
    let rsnm = Sram_cell.Margins.read_snm ~cell condition in
    let read_current =
      Finfet.Calibration.stack_read_current ~access:nfet ~pull_down:nfet
        ~vwl:condition.Sram_cell.Sram6t.vwl
        ~vbl:condition.Sram_cell.Sram6t.vbl
        ~vddc:condition.Sram_cell.Sram6t.vddc
        ~vssc:condition.Sram_cell.Sram6t.vssc
    in
    { voltage; rsnm; read_current;
      bl_delay = bl_delay_of_current ~flavor read_current }
  in
  Array.map point voltages

type write_point = {
  voltage : float;
  wm : float;
  cell_write_delay : float;
}

let write_sweep ~flavor ~technique ~voltages () =
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib flavor)
      ~pfet:(Finfet.Library.pfet lib flavor)
  in
  let point voltage =
    let condition = Technique.write_condition technique ~voltage in
    let wm = Sram_cell.Margins.write_margin ~cell condition in
    let wd = Sram_cell.Dynamics.write_delay ~cell condition in
    { voltage; wm;
      cell_write_delay =
        (if wd.Sram_cell.Dynamics.flipped then wd.Sram_cell.Dynamics.delay
         else infinity) }
  in
  Array.map point voltages

let crossing_voltage ~points ~threshold =
  let n = Array.length points in
  let rec scan k =
    if k >= n then None
    else begin
      let v0, m0 = points.(k - 1) in
      let v1, m1 = points.(k) in
      if (m0 -. threshold) *. (m1 -. threshold) <= 0.0 && m0 <> m1 then
        Some (v0 +. ((threshold -. m0) /. (m1 -. m0) *. (v1 -. v0)))
      else scan (k + 1)
    end
  in
  if n < 2 then None else scan 1
