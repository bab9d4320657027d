let vtc_output ~nfet ~pfet ~vin =
  (* Single-node DC solve of the inverter output. *)
  let open Spice in
  let n = Netlist.create () in
  let vdd = Netlist.fresh_node n "vdd" in
  let input = Netlist.fresh_node n "in" in
  let out = Netlist.fresh_node n "out" in
  Netlist.vdc n ~plus:vdd ~minus:Netlist.ground ~volts:Finfet.Tech.vdd_nominal;
  Netlist.vdc n ~plus:input ~minus:Netlist.ground ~volts:vin;
  Netlist.fet n ~params:pfet ~gate:input ~drain:out ~source:vdd ();
  Netlist.fet n ~params:nfet ~gate:input ~drain:out ~source:Netlist.ground ();
  Dc.node_voltage (Dc.operating_point n) out

let trip_point ~nfet ~pfet =
  let vdd = Finfet.Tech.vdd_nominal in
  let gap vin = vtc_output ~nfet ~pfet ~vin -. vin in
  (* The VTC is decreasing and crosses the identity exactly once. *)
  Numerics.Roots.brent ~tol:1e-6 gap ~lo:0.01 ~hi:(vdd -. 0.01)

type offset_summary = {
  samples : float array;
  sigma : float;
  mean : float;
  required_swing : float;
}

let analyze ?(n = 200) ~nfet ~pfet () =
  assert (n > 1);
  let rng = Numerics.Rng.create ~seed:23 in
  let samples =
    Array.init n (fun _ ->
        let sample d = Finfet.Variation.sample_device rng d in
        let trip_a = trip_point ~nfet:(sample nfet) ~pfet:(sample pfet) in
        let trip_b = trip_point ~nfet:(sample nfet) ~pfet:(sample pfet) in
        trip_a -. trip_b)
  in
  let sigma = Numerics.Stats.stddev samples in
  { samples;
    sigma;
    mean = Numerics.Stats.mean samples;
    required_swing = (5.0 *. sigma) +. 0.020 }
