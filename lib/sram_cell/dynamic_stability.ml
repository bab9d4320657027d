let survives_pulse ~cell ~condition ~pulse () =
  assert (pulse > 0.0);
  let vdd = condition.Sram6t.vdd in
  let edge = 1e-12 in
  let t_open = 1e-12 in
  let t_close = t_open +. edge +. pulse in
  let wl_wave =
    Spice.Netlist.Pwl
      [ (0.0, 0.0);
        (t_open, 0.0);
        (t_open +. edge, condition.Sram6t.vwl);
        (t_close, condition.Sram6t.vwl);
        (t_close +. edge, 0.0) ]
  in
  let netlist, nodes = Sram6t.build ~with_node_caps:true ~wl_wave ~cell condition in
  (* Let the cell resettle for as long as the disturbance lasted. *)
  let t_stop = (2.0 *. t_close) +. 5e-12 in
  let trace =
    Spice.Transient.run
      ~dt:(t_stop /. 400.0)
      ~ic:[ (nodes.Sram6t.q, condition.Sram6t.vssc);
            (nodes.Sram6t.qb, condition.Sram6t.vddc) ]
      ~t_stop netlist
  in
  let final = trace.Spice.Transient.voltages.(Array.length trace.Spice.Transient.times - 1) in
  final.(nodes.Sram6t.q) < 0.5 *. vdd && final.(nodes.Sram6t.qb) > 0.5 *. vdd

let critical_pulse ~cell ~condition () =
  let lo = 1e-12 and hi = 200e-12 in
  if survives_pulse ~cell ~condition ~pulse:hi () then None
  else if not (survives_pulse ~cell ~condition ~pulse:lo ()) then Some lo
  else begin
    (* Longer pulses only give the disturbance more time: the predicate is
       monotone, so bisect. *)
    let rec bisect lo hi iter =
      if iter = 0 || hi /. lo < 1.15 then Some lo
      else begin
        let mid = sqrt (lo *. hi) in
        if survives_pulse ~cell ~condition ~pulse:mid () then bisect mid hi (iter - 1)
        else bisect lo mid (iter - 1)
      end
    in
    bisect lo hi 20
  end
