type t = {
  nfet : Finfet.Device.params;
  pfet : Finfet.Device.params;
  nfin : int;
}

let default ~nfet ~pfet = { nfet; pfet; nfin = 2 }

let node_cap t =
  let scale = float_of_int t.nfin in
  (* Each node sees the drains of its own inverter and the gates of the
     opposite one, plus a bitline-isolation transmission-gate drain. *)
  scale
  *. (t.nfet.Finfet.Device.c_drain +. t.pfet.Finfet.Device.c_drain
      +. t.nfet.Finfet.Device.c_gate +. t.pfet.Finfet.Device.c_gate
      +. t.nfet.Finfet.Device.c_drain)

let gm t =
  let vdd = Finfet.Tech.vdd_nominal in
  let vmid = 0.5 *. vdd in
  let h = 1e-4 in
  let i vgs =
    Finfet.Device.ids t.nfet ~vgs ~vds:vmid
  in
  float_of_int t.nfin *. ((i (vmid +. h) -. i (vmid -. h)) /. (2.0 *. h))

let delay t ~delta_v =
  assert (delta_v > 0.0);
  let vdd = Finfet.Tech.vdd_nominal in
  let tau = node_cap t /. gm t in
  let target = 0.9 *. vdd in
  tau *. log (target /. delta_v)

let energy t ~vdd =
  (* Both internal nodes swing (one up, one down) plus the enable gate. *)
  let c_enable =
    float_of_int t.nfin *. t.nfet.Finfet.Device.c_gate
  in
  ((2.0 *. node_cap t) +. c_enable) *. vdd *. vdd
