let t_ref_celsius = 25.0
let dvt_dt = -0.7e-3
let mobility_exponent = 1.5

let kelvin celsius = celsius +. 273.15

let at_temperature ~celsius (d : Device.params) =
  assert (celsius >= -40.0 && celsius <= 150.0);
  let t = kelvin celsius and t0 = kelvin t_ref_celsius in
  let ratio = t /. t0 in
  { d with
    Device.vt = max 0.02 (d.Device.vt +. (dvt_dt *. (celsius -. t_ref_celsius)));
    beta = d.Device.beta *. (ratio ** -.mobility_exponent);
    s_smooth = d.Device.s_smooth *. ratio }
