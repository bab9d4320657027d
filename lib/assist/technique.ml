type read_assist = Wl_underdrive | Vdd_boost | Negative_gnd

type write_assist = Wl_overdrive | Negative_bl

let read_assist_name = function
  | Wl_underdrive -> "WL underdrive"
  | Vdd_boost -> "Vdd boost"
  | Negative_gnd -> "negative Gnd"

let write_assist_name = function
  | Wl_overdrive -> "WL overdrive"
  | Negative_bl -> "negative BL"

let read_condition technique ~voltage =
  match technique with
  | Wl_underdrive -> Sram_cell.Sram6t.read ~vwl:voltage ()
  | Vdd_boost -> Sram_cell.Sram6t.read ~vddc:voltage ()
  | Negative_gnd -> Sram_cell.Sram6t.read ~vssc:voltage ()

let write_condition technique ~voltage =
  match technique with
  | Wl_overdrive -> Sram_cell.Sram6t.write0 ~vwl:voltage ()
  | Negative_bl -> Sram_cell.Sram6t.write0 ~vbl:voltage ()

let range ~lo ~hi ~step =
  let n = int_of_float (Float.round (abs_float (hi -. lo) /. step)) + 1 in
  Array.init n (fun i ->
      lo +. (float_of_int i *. (if hi >= lo then step else -.step)))

let default_read_range = function
  | Wl_underdrive -> range ~lo:0.250 ~hi:0.450 ~step:0.025
  | Vdd_boost -> range ~lo:0.450 ~hi:0.700 ~step:0.025
  | Negative_gnd -> range ~lo:0.0 ~hi:(-0.240) ~step:0.030

let default_write_range = function
  | Wl_overdrive -> range ~lo:0.450 ~hi:0.660 ~step:0.030
  | Negative_bl -> range ~lo:0.0 ~hi:(-0.150) ~step:0.025
