type config = {
  nr : int;
  n_pre : int;
  n_wr : int;
  segments : int;
  with_wire_resistance : bool;
}

let default_config =
  { nr = 64; n_pre = 1; n_wr = 1; segments = 8; with_wire_resistance = true }

let bl_capacitance ~cell config =
  let open Finfet in
  let c_dn = cell.Variation.access_l.Device.c_drain in
  let c_dp = cell.Variation.pull_up_l.Device.c_drain in
  (* Table 1, no-mux branch: n_r (C_height + C_dn) + (N_pre + 1) C_dp
     + N_wr (C_dn + C_dp) + C_dp. *)
  (float_of_int config.nr *. (Tech.c_height +. c_dn))
  +. (float_of_int (config.n_pre + 1) *. c_dp)
  +. (float_of_int config.n_wr *. (c_dn +. c_dp))
  +. c_dp

let read_current ~cell (condition : Sram6t.condition) =
  Finfet.Calibration.stack_read_current
    ~access:cell.Finfet.Variation.access_l
    ~pull_down:cell.Finfet.Variation.pull_down_l
    ~vwl:condition.Sram6t.vwl ~vbl:condition.Sram6t.vbl
    ~vddc:condition.Sram6t.vddc ~vssc:condition.Sram6t.vssc

let analytic_delay ~cell config condition =
  let i = read_current ~cell condition in
  if i <= 0.0 then infinity
  else bl_capacitance ~cell config *. Finfet.Tech.delta_v_sense /. i

type result = {
  analytic : float;
  simulated : float;
  relative_error : float;
}

let validate ~cell config (condition : Sram6t.condition) =
  assert (config.segments >= 1 && config.nr >= 1);
  let open Spice in
  let n = Netlist.create () in
  (* Rails. *)
  let cvdd = Netlist.fresh_node n "cvdd" in
  let cvss = Netlist.fresh_node n "cvss" in
  let wl = Netlist.fresh_node n "wl" in
  let blb = Netlist.fresh_node n "blb" in
  Netlist.vdc n ~plus:cvdd ~minus:Netlist.ground ~volts:condition.Sram6t.vddc;
  Netlist.vdc n ~plus:cvss ~minus:Netlist.ground ~volts:condition.Sram6t.vssc;
  Netlist.vdc n ~plus:wl ~minus:Netlist.ground ~volts:condition.Sram6t.vwl;
  Netlist.vdc n ~plus:blb ~minus:Netlist.ground ~volts:condition.Sram6t.vblb;
  (* Bitline ladder: sense node (index 0, periphery end) to far node.  The
     floating line carries the full Table 1 capacitance, distributed. *)
  let sense = Netlist.fresh_node n "bl_sense" in
  let rec extend node k =
    if k = 0 then node
    else begin
      let next = Netlist.fresh_node n (Printf.sprintf "bl_%d" k) in
      if config.with_wire_resistance then begin
        let length = float_of_int config.nr *. Finfet.Tech.cell_height in
        let r_total = length *. Finfet.Tech.r_wire_per_m in
        Netlist.resistor n ~plus:node ~minus:next
          ~ohms:(r_total /. float_of_int config.segments)
      end
      else
        (* A tiny series resistance keeps the ladder structure without
           modelling the metal. *)
        Netlist.resistor n ~plus:node ~minus:next ~ohms:0.1;
      extend next (k - 1)
    end
  in
  let far = extend sense config.segments in
  let c_total = bl_capacitance ~cell config in
  let c_segment = c_total /. float_of_int (config.segments + 1) in
  (* Ladder nodes are consecutive integers from [sense] to [far]. *)
  for node = sense to far do
    Netlist.capacitor n ~plus:node ~minus:Netlist.ground ~farads:c_segment
  done;
  (* The accessed cell at the far end, storing 0 on the BL side. *)
  let q = Netlist.fresh_node n "q" in
  let qb = Netlist.fresh_node n "qb" in
  let open Finfet.Variation in
  Netlist.fet n ~params:cell.pull_up_l ~gate:qb ~drain:q ~source:cvdd ();
  Netlist.fet n ~params:cell.pull_down_l ~gate:qb ~drain:q ~source:cvss ();
  Netlist.fet n ~params:cell.access_l ~gate:wl ~drain:far ~source:q ();
  Netlist.fet n ~params:cell.pull_up_r ~gate:q ~drain:qb ~source:cvdd ();
  Netlist.fet n ~params:cell.pull_down_r ~gate:q ~drain:qb ~source:cvss ();
  Netlist.fet n ~params:cell.access_r ~gate:wl ~drain:blb ~source:qb ();
  Netlist.capacitor n ~plus:q ~minus:Netlist.ground
    ~farads:(Sram6t.storage_node_cap cell);
  Netlist.capacitor n ~plus:qb ~minus:Netlist.ground
    ~farads:(Sram6t.storage_node_cap cell);
  let analytic = analytic_delay ~cell config condition in
  let t_stop = 6.0 *. analytic in
  let vdd = condition.Sram6t.vdd in
  let ic =
    (q, condition.Sram6t.vssc)
    :: (qb, condition.Sram6t.vddc)
    :: List.init (far - sense + 1) (fun i -> (sense + i, vdd))
  in
  let trace =
    Spice.Transient.run ~dt:(t_stop /. 500.0) ~ic ~t_stop n
  in
  let simulated =
    match
      Spice.Transient.crossing_time trace ~node:sense
        ~threshold:(vdd -. Finfet.Tech.delta_v_sense) ~direction:`Falling
    with
    | Some t -> t
    | None -> infinity
  in
  { analytic; simulated;
    relative_error =
      (if Float.is_finite simulated then (simulated -. analytic) /. simulated
       else infinity) }

let periphery_devices () =
  let lib = Lazy.force Finfet.Library.default in
  (Finfet.Library.nfet lib Finfet.Library.Lvt,
   Finfet.Library.pfet lib Finfet.Library.Lvt)

let i_on_tg_per_fin () =
  let nfet, pfet = periphery_devices () in
  let vdd = Finfet.Tech.vdd_nominal in
  Finfet.Device.ids nfet ~vgs:vdd ~vds:(0.5 *. vdd)
  +. Finfet.Device.ids pfet ~vgs:vdd ~vds:(0.5 *. vdd)

let analytic_write_delay ~cell config =
  let vdd = Finfet.Tech.vdd_nominal in
  bl_capacitance ~cell config *. vdd
  /. (0.50 *. float_of_int config.n_wr *. i_on_tg_per_fin ())

let validate_write ~cell config =
  assert (config.segments >= 1 && config.nr >= 1);
  let open Spice in
  let nfet, pfet = periphery_devices () in
  let vdd = Finfet.Tech.vdd_nominal in
  let n = Netlist.create () in
  let vdd_node = Netlist.fresh_node n "vdd" in
  Netlist.vdc n ~plus:vdd_node ~minus:Netlist.ground ~volts:vdd;
  (* The ladder, near (write-buffer) end first. *)
  let near = Netlist.fresh_node n "bl_near" in
  let rec extend node k =
    if k = 0 then node
    else begin
      let next = Netlist.fresh_node n (Printf.sprintf "bl_%d" k) in
      if config.with_wire_resistance then begin
        let length = float_of_int config.nr *. Finfet.Tech.cell_height in
        Netlist.resistor n ~plus:node ~minus:next
          ~ohms:(length *. Finfet.Tech.r_wire_per_m
                 /. float_of_int config.segments)
      end
      else Netlist.resistor n ~plus:node ~minus:next ~ohms:0.1;
      extend next (k - 1)
    end
  in
  let far = extend near config.segments in
  let c_segment =
    bl_capacitance ~cell config /. float_of_int (config.segments + 1)
  in
  for node = near to far do
    Netlist.capacitor n ~plus:node ~minus:Netlist.ground ~farads:c_segment
  done;
  (* The write transmission gate pulls the near end to the (grounded)
     write-driver output; both halves fully on. *)
  Netlist.fet n ~params:nfet ~nfin:config.n_wr ~gate:vdd_node ~drain:near
    ~source:Netlist.ground ();
  Netlist.fet n ~params:pfet ~nfin:config.n_wr ~gate:Netlist.ground ~drain:near
    ~source:Netlist.ground ();
  let analytic = analytic_write_delay ~cell config in
  let t_stop = 8.0 *. analytic in
  let ic = List.init (far - near + 1) (fun i -> (near + i, vdd)) in
  let trace = Spice.Transient.run ~dt:(t_stop /. 500.0) ~ic ~t_stop n in
  (* Full-swing write: time to a 90% swing at the far cell, the natural
     transient counterpart of Table 2's dV = Vdd budget. *)
  let simulated =
    match
      Spice.Transient.crossing_time trace ~node:far ~threshold:(0.1 *. vdd)
        ~direction:`Falling
    with
    | Some t -> t
    | None -> infinity
  in
  { analytic; simulated;
    relative_error =
      (if Float.is_finite simulated then (simulated -. analytic) /. simulated
       else infinity) }
