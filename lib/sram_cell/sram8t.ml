type t = {
  core : Finfet.Variation.cell_sample;
  read_pull_down : Finfet.Device.params;
  read_access : Finfet.Device.params;
}

let of_library lib flavor =
  let nfet = Finfet.Library.nfet lib flavor in
  let pfet = Finfet.Library.pfet lib flavor in
  { core = Finfet.Variation.nominal_cell ~nfet ~pfet;
    read_pull_down = nfet;
    read_access = nfet }

let area_factor = 1.3

let hold_snm t ~vdd = Margins.hold_snm ~cell:t.core vdd

let read_current t ?(vssc = 0.0) () =
  (* The read pull-down's gate is the QB node at the full cell supply. *)
  Finfet.Calibration.stack_read_current ~access:t.read_access
    ~pull_down:t.read_pull_down ~vwl:Finfet.Tech.vdd_nominal ~vbl:Finfet.Tech.vdd_nominal
    ~vddc:Finfet.Tech.vdd_nominal ~vssc

let leakage_power t =
  let vdd = Finfet.Tech.vdd_nominal in
  (* 6T core in hold plus the read port: RBL precharged, RWL off. *)
  let open Spice in
  let n = Netlist.create () in
  let q = Netlist.fresh_node n "q" in
  let qb = Netlist.fresh_node n "qb" in
  let mid = Netlist.fresh_node n "read_mid" in
  let vdd_node = Netlist.fresh_node n "vdd" in
  let wl = Netlist.fresh_node n "wl" in
  let bl = Netlist.fresh_node n "bl" in
  let blb = Netlist.fresh_node n "blb" in
  let rwl = Netlist.fresh_node n "rwl" in
  let rbl = Netlist.fresh_node n "rbl" in
  Netlist.vdc n ~plus:vdd_node ~minus:Netlist.ground ~volts:vdd;
  Netlist.vdc n ~plus:wl ~minus:Netlist.ground ~volts:0.0;
  Netlist.vdc n ~plus:bl ~minus:Netlist.ground ~volts:vdd;
  Netlist.vdc n ~plus:blb ~minus:Netlist.ground ~volts:vdd;
  Netlist.vdc n ~plus:rwl ~minus:Netlist.ground ~volts:0.0;
  Netlist.vdc n ~plus:rbl ~minus:Netlist.ground ~volts:vdd;
  let c = t.core in
  let open Finfet.Variation in
  Netlist.fet n ~params:c.pull_up_l ~gate:qb ~drain:q ~source:vdd_node ();
  Netlist.fet n ~params:c.pull_down_l ~gate:qb ~drain:q ~source:Netlist.ground ();
  Netlist.fet n ~params:c.access_l ~gate:wl ~drain:bl ~source:q ();
  Netlist.fet n ~params:c.pull_up_r ~gate:q ~drain:qb ~source:vdd_node ();
  Netlist.fet n ~params:c.pull_down_r ~gate:q ~drain:qb ~source:Netlist.ground ();
  Netlist.fet n ~params:c.access_r ~gate:wl ~drain:blb ~source:qb ();
  (* Read port: worst leakage state is QB = 1 (read pull-down on, the OFF
     read access blocks), which is the Q = 0 lobe we solve. *)
  Netlist.fet n ~params:t.read_access ~gate:rwl ~drain:rbl ~source:mid ();
  Netlist.fet n ~params:t.read_pull_down ~gate:qb ~drain:mid ~source:Netlist.ground ();
  let dim = Netlist.num_nodes n - 1 + Netlist.vsource_count n in
  let x0 = Array.make dim 0.0 in
  x0.(qb - 1) <- vdd;
  x0.(vdd_node - 1) <- vdd;
  x0.(bl - 1) <- vdd;
  x0.(blb - 1) <- vdd;
  x0.(rbl - 1) <- vdd;
  let s = Dc.operating_point ~x0 n in
  let sources =
    List.filter_map
      (function
        | Netlist.Vsource { volts; _ } -> Some (Netlist.waveform_at volts 0.0)
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Isource _
        | Netlist.Fet _ -> None)
      (Netlist.elements n)
  in
  List.fold_left ( +. ) 0.0
    (List.mapi (fun k v -> -.v *. s.Dc.source_currents.(k)) sources)
