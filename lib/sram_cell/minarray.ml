type result = {
  sensed_delay : float;
  analytic_delay : float;
  relative_error : float;
  accessed_retains : bool;
  row_mates_retain : bool;
  unselected_retain : bool;
  unknowns : int;
}

let read_experiment ?(nr = 8) ?(nc = 4) ~cell
    (condition : Sram6t.condition) =
  assert (nr >= 2 && nc >= 1);
  let open Spice in
  let vdd = condition.Sram6t.vdd in
  let vddc = condition.Sram6t.vddc in
  let vssc = condition.Sram6t.vssc in
  let n = Netlist.create () in
  (* Rails: the accessed row gets the assist levels, the others nominal —
     the per-row CVDD/CVSS multiplexers of the paper's Figure 6. *)
  let cvdd_sel = Netlist.fresh_node n "cvdd_sel" in
  let cvss_sel = Netlist.fresh_node n "cvss_sel" in
  let cvdd_nom = Netlist.fresh_node n "cvdd_nom" in
  Netlist.vdc n ~plus:cvdd_sel ~minus:Netlist.ground ~volts:vddc;
  Netlist.vdc n ~plus:cvss_sel ~minus:Netlist.ground ~volts:vssc;
  Netlist.vdc n ~plus:cvdd_nom ~minus:Netlist.ground ~volts:vdd;
  (* Word lines: row 0 steps to the read level, the rest stay low.  A
     grounded-WL row needs no source — tie the gates to ground. *)
  let wl_sel = Netlist.fresh_node n "wl0" in
  Netlist.vwave n ~plus:wl_sel ~minus:Netlist.ground
    ~wave:(Netlist.Step
             { t_delay = 1e-12; t_rise = 1e-12; v0 = 0.0;
               v1 = condition.Sram6t.vwl });
  (* Floating, precharged bitline pairs with the wire + junction cap the
     analytic model assigns (the access-transistor drains are lumped here;
     the netlist FETs carry currents, not parasitics). *)
  let c_bl =
    (float_of_int nr
     *. (Finfet.Tech.c_height +. cell.Finfet.Variation.access_l.Finfet.Device.c_drain))
    +. (2.0 *. cell.Finfet.Variation.pull_up_l.Finfet.Device.c_drain)
  in
  let bl = Array.init nc (fun c -> Netlist.fresh_node n (Printf.sprintf "bl%d" c)) in
  let blb = Array.init nc (fun c -> Netlist.fresh_node n (Printf.sprintf "blb%d" c)) in
  Array.iter
    (fun node -> Netlist.capacitor n ~plus:node ~minus:Netlist.ground ~farads:c_bl)
    bl;
  Array.iter
    (fun node -> Netlist.capacitor n ~plus:node ~minus:Netlist.ground ~farads:c_bl)
    blb;
  (* Cells. *)
  let q = Array.make_matrix nr nc 0 in
  let qb = Array.make_matrix nr nc 0 in
  let c_node = Sram6t.storage_node_cap cell in
  for r = 0 to nr - 1 do
    let row_vdd = if r = 0 then cvdd_sel else cvdd_nom in
    let row_vss = if r = 0 then cvss_sel else Netlist.ground in
    let row_wl = if r = 0 then wl_sel else Netlist.ground in
    for c = 0 to nc - 1 do
      let nq = Netlist.fresh_node n (Printf.sprintf "q_%d_%d" r c) in
      let nqb = Netlist.fresh_node n (Printf.sprintf "qb_%d_%d" r c) in
      q.(r).(c) <- nq;
      qb.(r).(c) <- nqb;
      let open Finfet.Variation in
      Netlist.fet n ~params:cell.pull_up_l ~gate:nqb ~drain:nq ~source:row_vdd ();
      Netlist.fet n ~params:cell.pull_down_l ~gate:nqb ~drain:nq ~source:row_vss ();
      Netlist.fet n ~params:cell.access_l ~gate:row_wl ~drain:bl.(c) ~source:nq ();
      Netlist.fet n ~params:cell.pull_up_r ~gate:nq ~drain:nqb ~source:row_vdd ();
      Netlist.fet n ~params:cell.pull_down_r ~gate:nq ~drain:nqb ~source:row_vss ();
      Netlist.fet n ~params:cell.access_r ~gate:row_wl ~drain:blb.(c) ~source:nqb ();
      Netlist.capacitor n ~plus:nq ~minus:Netlist.ground ~farads:c_node;
      Netlist.capacitor n ~plus:nqb ~minus:Netlist.ground ~farads:c_node
    done
  done;
  (* Analytic reference for the accessed column. *)
  let i_read =
    Finfet.Calibration.stack_read_current ~access:cell.Finfet.Variation.access_l
      ~pull_down:cell.Finfet.Variation.pull_down_l ~vwl:condition.Sram6t.vwl
      ~vbl:vdd ~vddc ~vssc
  in
  let analytic_delay =
    if i_read <= 0.0 then infinity
    else c_bl *. Finfet.Tech.delta_v_sense /. i_read
  in
  let t_stop = 6.0 *. analytic_delay in
  (* Initial conditions: every cell stores 0 (on its row's rails), all
     bitlines precharged. *)
  let ic = ref [] in
  for r = 0 to nr - 1 do
    let hi = if r = 0 then vddc else vdd in
    let lo = if r = 0 then vssc else 0.0 in
    for c = 0 to nc - 1 do
      ic := (q.(r).(c), lo) :: (qb.(r).(c), hi) :: !ic
    done
  done;
  Array.iter (fun node -> ic := (node, vdd) :: !ic) bl;
  Array.iter (fun node -> ic := (node, vdd) :: !ic) blb;
  let trace = Transient.run ~dt:(t_stop /. 300.0) ~ic:!ic ~t_stop n in
  let sensed_delay =
    match
      Transient.crossing_time trace ~node:bl.(0)
        ~threshold:(vdd -. Finfet.Tech.delta_v_sense) ~direction:`Falling
    with
    | Some t -> t
    | None -> infinity
  in
  let final = trace.Transient.voltages.(Array.length trace.Transient.times - 1) in
  let retains r c =
    let hi = if r = 0 then vddc else vdd in
    (* A retained 0: the storage node stays below the trip region and its
       complement stays high. *)
    final.(q.(r).(c)) < 0.45 *. hi && final.(qb.(r).(c)) > 0.75 *. hi
  in
  let row_mates = ref true in
  for c = 1 to nc - 1 do
    if not (retains 0 c) then row_mates := false
  done;
  let unselected = ref true in
  for r = 1 to nr - 1 do
    for c = 0 to nc - 1 do
      if not (retains r c) then unselected := false
    done
  done;
  { sensed_delay;
    analytic_delay;
    relative_error =
      (if Float.is_finite sensed_delay then
         (sensed_delay -. analytic_delay) /. sensed_delay
       else infinity);
    accessed_retains = retains 0 0;
    row_mates_retain = !row_mates;
    unselected_retain = !unselected;
    unknowns = Netlist.num_nodes n - 1 + Netlist.vsource_count n }

type write_result = {
  flipped : bool;
  write_delay : float;
  mates_survive : bool;
  others_survive : bool;
  w_unknowns : int;
}

let write_experiment ~cell ~vwl () =
  let nr = 8 and nc = 4 and t_stop = 40e-12 in
  let open Spice in
  let vdd = Finfet.Tech.vdd_nominal in
  let n = Netlist.create () in
  let vdd_node = Netlist.fresh_node n "vdd" in
  Netlist.vdc n ~plus:vdd_node ~minus:Netlist.ground ~volts:vdd;
  let wl_sel = Netlist.fresh_node n "wl0" in
  Netlist.vwave n ~plus:wl_sel ~minus:Netlist.ground
    ~wave:(Netlist.Step { t_delay = 1e-12; t_rise = 1e-12; v0 = 0.0; v1 = vwl });
  (* Column 0: bitlines driven to the write value (writing a 1: BL high,
     BLB low).  Other columns: floating precharged pairs, i.e. the
     half-select condition. *)
  let bl0 = Netlist.fresh_node n "bl0" in
  let blb0 = Netlist.fresh_node n "blb0" in
  Netlist.vdc n ~plus:bl0 ~minus:Netlist.ground ~volts:vdd;
  Netlist.vdc n ~plus:blb0 ~minus:Netlist.ground ~volts:0.0;
  let c_bl =
    (float_of_int nr
     *. (Finfet.Tech.c_height +. cell.Finfet.Variation.access_l.Finfet.Device.c_drain))
    +. (2.0 *. cell.Finfet.Variation.pull_up_l.Finfet.Device.c_drain)
  in
  let bl = Array.make nc bl0 in
  let blb = Array.make nc blb0 in
  for c = 1 to nc - 1 do
    bl.(c) <- Netlist.fresh_node n (Printf.sprintf "bl%d" c);
    blb.(c) <- Netlist.fresh_node n (Printf.sprintf "blb%d" c);
    Netlist.capacitor n ~plus:bl.(c) ~minus:Netlist.ground ~farads:c_bl;
    Netlist.capacitor n ~plus:blb.(c) ~minus:Netlist.ground ~farads:c_bl
  done;
  let q = Array.make_matrix nr nc 0 in
  let qb = Array.make_matrix nr nc 0 in
  let c_node = Sram6t.storage_node_cap cell in
  for r = 0 to nr - 1 do
    let row_wl = if r = 0 then wl_sel else Netlist.ground in
    for c = 0 to nc - 1 do
      let nq = Netlist.fresh_node n (Printf.sprintf "q_%d_%d" r c) in
      let nqb = Netlist.fresh_node n (Printf.sprintf "qb_%d_%d" r c) in
      q.(r).(c) <- nq;
      qb.(r).(c) <- nqb;
      let open Finfet.Variation in
      Netlist.fet n ~params:cell.pull_up_l ~gate:nqb ~drain:nq ~source:vdd_node ();
      Netlist.fet n ~params:cell.pull_down_l ~gate:nqb ~drain:nq
        ~source:Netlist.ground ();
      Netlist.fet n ~params:cell.access_l ~gate:row_wl ~drain:bl.(c) ~source:nq ();
      Netlist.fet n ~params:cell.pull_up_r ~gate:nq ~drain:nqb ~source:vdd_node ();
      Netlist.fet n ~params:cell.pull_down_r ~gate:nq ~drain:nqb
        ~source:Netlist.ground ();
      Netlist.fet n ~params:cell.access_r ~gate:row_wl ~drain:blb.(c)
        ~source:nqb ();
      Netlist.capacitor n ~plus:nq ~minus:Netlist.ground ~farads:c_node;
      Netlist.capacitor n ~plus:nqb ~minus:Netlist.ground ~farads:c_node
    done
  done;
  let ic = ref [] in
  for r = 0 to nr - 1 do
    for c = 0 to nc - 1 do
      ic := (q.(r).(c), 0.0) :: (qb.(r).(c), vdd) :: !ic
    done
  done;
  for c = 1 to nc - 1 do
    ic := (bl.(c), vdd) :: (blb.(c), vdd) :: !ic
  done;
  let trace = Transient.run ~dt:(t_stop /. 400.0) ~ic:!ic ~t_stop n in
  let final = trace.Transient.voltages.(Array.length trace.Transient.times - 1) in
  let flipped = final.(q.(0).(0)) > 0.75 *. vdd && final.(qb.(0).(0)) < 0.25 *. vdd in
  (* Write delay: WL at 50% Vdd to the target's Q/QB crossing. *)
  let wl_cross =
    match
      Transient.crossing_time trace ~node:wl_sel ~threshold:(0.5 *. vdd)
        ~direction:`Rising
    with
    | Some t -> t
    | None -> 1e-12
  in
  let qt = Transient.node_trace trace q.(0).(0) in
  let qbt = Transient.node_trace trace qb.(0).(0) in
  let write_delay =
    let rec find k =
      if k >= Array.length qt then infinity
      else if qt.(k) -. qbt.(k) >= 0.0 then trace.Transient.times.(k) -. wl_cross
      else find (k + 1)
    in
    find 1
  in
  let retains r c = final.(q.(r).(c)) < 0.45 *. vdd && final.(qb.(r).(c)) > 0.75 *. vdd in
  let mates = ref true in
  for c = 1 to nc - 1 do
    if not (retains 0 c) then mates := false
  done;
  let others = ref true in
  for r = 1 to nr - 1 do
    for c = 0 to nc - 1 do
      if not (retains r c) then others := false
    done
  done;
  { flipped;
    write_delay;
    mates_survive = !mates;
    others_survive = !others;
    w_unknowns = Netlist.num_nodes n - 1 + Netlist.vsource_count n }
