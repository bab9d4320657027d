type built = {
  netlist : Spice.Netlist.t;
  input : Spice.Netlist.node;
  output : Spice.Netlist.node;
}

let vdd = Finfet.Tech.vdd_nominal

(* A step that has settled long before the measurement window ends; the
   rise time is kept near the technology tau so the input slew resembles a
   real driving gate. *)
let input_step () =
  Spice.Netlist.Step { t_delay = 2e-12; t_rise = 1e-12; v0 = 0.0; v1 = vdd }

let add_inverter n ~nfet ~pfet ~nfin ~gate ~out ~vdd_node =
  Spice.Netlist.fet n ~params:pfet ~nfin ~gate ~drain:out ~source:vdd_node ();
  Spice.Netlist.fet n ~params:nfet ~nfin ~gate ~drain:out
    ~source:Spice.Netlist.ground ();
  (* Output parasitics as an explicit capacitor so the transient slews. *)
  let c_par =
    float_of_int nfin *. (nfet.Finfet.Device.c_drain +. pfet.Finfet.Device.c_drain)
  in
  Spice.Netlist.capacitor n ~plus:out ~minus:Spice.Netlist.ground ~farads:c_par

let build_inverter_chain ~nfet ~pfet ~fins ~c_load =
  assert (fins <> []);
  let n = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.fresh_node n "vdd" in
  let input = Spice.Netlist.fresh_node n "in" in
  Spice.Netlist.vdc n ~plus:vdd_node ~minus:Spice.Netlist.ground ~volts:vdd;
  Spice.Netlist.vwave n ~plus:input ~minus:Spice.Netlist.ground
    ~wave:(input_step ());
  let output =
    List.fold_left
      (fun gate nfin ->
        let out = Spice.Netlist.fresh_node n "stage" in
        add_inverter n ~nfet ~pfet ~nfin ~gate ~out ~vdd_node;
        out)
      input fins
  in
  Spice.Netlist.capacitor n ~plus:output ~minus:Spice.Netlist.ground
    ~farads:c_load;
  { netlist = n; input; output }

let build_nand2_stage ~nfet ~pfet ~nfin ~c_load =
  let n = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.fresh_node n "vdd" in
  let input = Spice.Netlist.fresh_node n "a" in
  let out = Spice.Netlist.fresh_node n "out" in
  let mid = Spice.Netlist.fresh_node n "stack" in
  Spice.Netlist.vdc n ~plus:vdd_node ~minus:Spice.Netlist.ground ~volts:vdd;
  Spice.Netlist.vwave n ~plus:input ~minus:Spice.Netlist.ground
    ~wave:(input_step ());
  (* b input tied high: the a transition switches the gate. *)
  let b = Spice.Netlist.fresh_node n "b" in
  Spice.Netlist.vdc n ~plus:b ~minus:Spice.Netlist.ground ~volts:vdd;
  (* Parallel pull-ups, series (upsized) pull-down stack. *)
  Spice.Netlist.fet n ~params:pfet ~nfin ~gate:input ~drain:out ~source:vdd_node ();
  Spice.Netlist.fet n ~params:pfet ~nfin ~gate:b ~drain:out ~source:vdd_node ();
  Spice.Netlist.fet n ~params:nfet ~nfin:(2 * nfin) ~gate:input ~drain:out
    ~source:mid ();
  Spice.Netlist.fet n ~params:nfet ~nfin:(2 * nfin) ~gate:b ~drain:mid
    ~source:Spice.Netlist.ground ();
  let c_par =
    float_of_int nfin
    *. (2.0 *. (nfet.Finfet.Device.c_drain +. pfet.Finfet.Device.c_drain))
  in
  Spice.Netlist.capacitor n ~plus:out ~minus:Spice.Netlist.ground ~farads:c_par;
  Spice.Netlist.capacitor n ~plus:mid ~minus:Spice.Netlist.ground
    ~farads:(float_of_int nfin *. nfet.Finfet.Device.c_drain);
  Spice.Netlist.capacitor n ~plus:out ~minus:Spice.Netlist.ground ~farads:c_load;
  { netlist = n; input; output = out }

let measure_delay ?(t_stop = 200e-12) built =
  let trace =
    Spice.Transient.run ~dt:(t_stop /. 800.0) ~t_stop built.netlist
  in
  let half = 0.5 *. vdd in
  let t_in =
    match
      Spice.Transient.crossing_time trace ~node:built.input ~threshold:half
        ~direction:`Rising
    with
    | Some t -> t
    | None -> failwith "Gate_sim.measure_delay: input never switched"
  in
  let out_crossing direction =
    Spice.Transient.crossing_time trace ~node:built.output ~threshold:half
      ~direction
  in
  match (out_crossing `Rising, out_crossing `Falling) with
  | None, None -> failwith "Gate_sim.measure_delay: output never switched"
  | Some t, None | None, Some t -> t -. t_in
  | Some a, Some b -> min a b -. t_in

let add_nand2_through n ~nfet ~pfet ~nfin ~gate ~out ~vdd_node =
  (* One 2-input NAND with the second input tied high, so the signal on
     [gate] propagates; parasitics attached explicitly. *)
  let b = vdd_node in
  let mid = Spice.Netlist.fresh_node n "nand_stack" in
  Spice.Netlist.fet n ~params:pfet ~nfin ~gate ~drain:out ~source:vdd_node ();
  Spice.Netlist.fet n ~params:pfet ~nfin ~gate:b ~drain:out ~source:vdd_node ();
  Spice.Netlist.fet n ~params:nfet ~nfin:(2 * nfin) ~gate ~drain:out ~source:mid ();
  Spice.Netlist.fet n ~params:nfet ~nfin:(2 * nfin) ~gate:b ~drain:mid
    ~source:Spice.Netlist.ground ();
  let c_par =
    float_of_int nfin
    *. (2.0 *. (nfet.Finfet.Device.c_drain +. pfet.Finfet.Device.c_drain))
  in
  Spice.Netlist.capacitor n ~plus:out ~minus:Spice.Netlist.ground ~farads:c_par;
  Spice.Netlist.capacitor n ~plus:mid ~minus:Spice.Netlist.ground
    ~farads:(float_of_int nfin *. nfet.Finfet.Device.c_drain)

let build_decoder_path ~nfet ~pfet ~bits ~c_out =
  assert (bits >= 1);
  let n = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.fresh_node n "vdd" in
  let input = Spice.Netlist.fresh_node n "addr" in
  Spice.Netlist.vdc n ~plus:vdd_node ~minus:Spice.Netlist.ground ~volts:vdd;
  Spice.Netlist.vwave n ~plus:input ~minus:Spice.Netlist.ground
    ~wave:(input_step ());
  (* Address buffer. *)
  let buffered = Spice.Netlist.fresh_node n "addr_buf" in
  add_inverter n ~nfet ~pfet ~nfin:1 ~gate:input ~out:buffered ~vdd_node;
  (* Predecode NAND2 + its driver, the latter sized for the line fanout —
     the counterpart of the buffer insertion the logical-effort model
     assumes. *)
  let groups = (bits + 1) / 2 in
  let fanout = max 1 ((1 lsl bits) / 4) in
  let driver_fins = max 1 (fanout / 3) in
  let predecoded = Spice.Netlist.fresh_node n "predec" in
  add_nand2_through n ~nfet ~pfet ~nfin:1 ~gate:buffered ~out:predecoded ~vdd_node;
  let line = Spice.Netlist.fresh_node n "line" in
  add_inverter n ~nfet ~pfet ~nfin:driver_fins ~gate:predecoded ~out:line ~vdd_node;
  (* The line fans out to a quarter of the final gates; the ones not on
     this path are pure gate load. *)
  let nand2_cin =
    ((2.0 *. nfet.Finfet.Device.c_gate) +. pfet.Finfet.Device.c_gate)
  in
  if fanout > 1 then
    Spice.Netlist.capacitor n ~plus:line ~minus:Spice.Netlist.ground
      ~farads:(float_of_int (fanout - 1) *. nand2_cin);
  (* Combine tree: depth log2(groups) of NAND2s (inverting stages; the
     delay measurement is edge-agnostic). *)
  let tree_depth =
    if groups <= 1 then 1
    else int_of_float (ceil (log (float_of_int groups) /. log 2.0))
  in
  let output = ref line in
  for _ = 1 to tree_depth do
    let next = Spice.Netlist.fresh_node n "tree" in
    add_nand2_through n ~nfet ~pfet ~nfin:1 ~gate:!output ~out:next ~vdd_node;
    output := next
  done;
  Spice.Netlist.capacitor n ~plus:!output ~minus:Spice.Netlist.ground
    ~farads:c_out;
  { netlist = n; input; output = !output }

let decoder_simulated_delay ~nfet ~pfet ~bits ~c_out =
  measure_delay (build_decoder_path ~nfet ~pfet ~bits ~c_out)

let superbuffer_simulated_delay (driver : Gates.Superbuffer.t) ~c_load =
  let built =
    build_inverter_chain ~nfet:driver.Gates.Superbuffer.nfet
      ~pfet:driver.Gates.Superbuffer.pfet ~fins:driver.Gates.Superbuffer.stage_fins ~c_load
  in
  measure_delay built

let superbuffer_model_delay driver ~c_load = Gates.Superbuffer.delay driver ~c_load
