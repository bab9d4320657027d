let power_at_condition ~cell condition =
  let netlist, nodes = Sram6t.build ~cell condition in
  let dim =
    Spice.Netlist.num_nodes netlist - 1 + Spice.Netlist.vsource_count netlist
  in
  let x0 = Array.make dim 0.0 in
  x0.(nodes.Sram6t.q - 1) <- condition.Sram6t.vssc;
  x0.(nodes.Sram6t.qb - 1) <- condition.Sram6t.vddc;
  x0.(nodes.Sram6t.cvdd - 1) <- condition.Sram6t.vddc;
  x0.(nodes.Sram6t.cvss - 1) <- condition.Sram6t.vssc;
  x0.(nodes.Sram6t.wl - 1) <- condition.Sram6t.vwl;
  x0.(nodes.Sram6t.bl - 1) <- condition.Sram6t.vbl;
  x0.(nodes.Sram6t.blb - 1) <- condition.Sram6t.vblb;
  (* [x0] is the rail state, and a cold HVT cell's leakage KCL residual
     there is already below Newton's 1e-12 A tolerance.  At least one
     step solves the source currents, which would otherwise stay at the
     guess's 0 W. *)
  let s = Spice.Dc.operating_point ~x0 ~min_iterations:1 netlist in
  (* Power delivered by each source: the branch current flows into the +
     terminal through the source, so delivery is -V * I. *)
  let sources =
    List.filter_map
      (function
        | Spice.Netlist.Vsource { volts; _ } ->
          Some (Spice.Netlist.waveform_at volts 0.0)
        | Spice.Netlist.Resistor _ | Spice.Netlist.Capacitor _
        | Spice.Netlist.Isource _ | Spice.Netlist.Fet _ -> None)
      (Spice.Netlist.elements netlist)
  in
  List.fold_left ( +. ) 0.0
    (List.mapi (fun k v -> -.v *. s.Spice.Dc.source_currents.(k)) sources)

let power ?(vdd = Finfet.Tech.vdd_nominal) ~cell () =
  power_at_condition ~cell (Sram6t.hold ~vdd ())
