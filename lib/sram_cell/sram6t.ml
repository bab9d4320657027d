type condition = {
  vdd : float;
  vddc : float;
  vssc : float;
  vwl : float;
  vbl : float;
  vblb : float;
}

let hold ?(vdd = Finfet.Tech.vdd_nominal) () =
  { vdd; vddc = vdd; vssc = 0.0; vwl = 0.0; vbl = vdd; vblb = vdd }

let read ?vddc ?(vssc = 0.0) ?vwl () =
  let vdd = Finfet.Tech.vdd_nominal in
  let vddc = Option.value vddc ~default:vdd in
  let vwl = Option.value vwl ~default:vdd in
  { vdd; vddc; vssc; vwl; vbl = vdd; vblb = vdd }

let write0 ?vwl ?(vbl = 0.0) () =
  let vdd = Finfet.Tech.vdd_nominal in
  let vwl = Option.value vwl ~default:vdd in
  { vdd; vddc = vdd; vssc = 0.0; vwl; vbl; vblb = vdd }

type nodes = {
  q : Spice.Netlist.node;
  qb : Spice.Netlist.node;
  cvdd : Spice.Netlist.node;
  cvss : Spice.Netlist.node;
  wl : Spice.Netlist.node;
  bl : Spice.Netlist.node;
  blb : Spice.Netlist.node;
}

let storage_node_cap (cell : Finfet.Variation.cell_sample) =
  let open Finfet.Device in
  cell.Finfet.Variation.pull_up_l.c_drain
  +. cell.Finfet.Variation.pull_down_l.c_drain
  +. cell.Finfet.Variation.access_l.c_drain
  +. cell.Finfet.Variation.pull_up_r.c_gate
  +. cell.Finfet.Variation.pull_down_r.c_gate

let build ?(with_node_caps = false) ?wl_wave ~cell condition =
  let open Spice in
  let n = Netlist.create () in
  let q = Netlist.fresh_node n "q" in
  let qb = Netlist.fresh_node n "qb" in
  let cvdd = Netlist.fresh_node n "cvdd" in
  let cvss = Netlist.fresh_node n "cvss" in
  let wl = Netlist.fresh_node n "wl" in
  let bl = Netlist.fresh_node n "bl" in
  let blb = Netlist.fresh_node n "blb" in
  Netlist.vdc n ~plus:cvdd ~minus:Netlist.ground ~volts:condition.vddc;
  Netlist.vdc n ~plus:cvss ~minus:Netlist.ground ~volts:condition.vssc;
  (match wl_wave with
   | Some wave -> Netlist.vwave n ~plus:wl ~minus:Netlist.ground ~wave
   | None -> Netlist.vdc n ~plus:wl ~minus:Netlist.ground ~volts:condition.vwl);
  Netlist.vdc n ~plus:bl ~minus:Netlist.ground ~volts:condition.vbl;
  Netlist.vdc n ~plus:blb ~minus:Netlist.ground ~volts:condition.vblb;
  let c = cell in
  let open Finfet.Variation in
  Netlist.fet n ~params:c.pull_up_l ~gate:qb ~drain:q ~source:cvdd ();
  Netlist.fet n ~params:c.pull_down_l ~gate:qb ~drain:q ~source:cvss ();
  Netlist.fet n ~params:c.access_l ~gate:wl ~drain:bl ~source:q ();
  Netlist.fet n ~params:c.pull_up_r ~gate:q ~drain:qb ~source:cvdd ();
  Netlist.fet n ~params:c.pull_down_r ~gate:q ~drain:qb ~source:cvss ();
  Netlist.fet n ~params:c.access_r ~gate:wl ~drain:blb ~source:qb ();
  if with_node_caps then begin
    let cq = storage_node_cap cell in
    Netlist.capacitor n ~plus:q ~minus:Netlist.ground ~farads:cq;
    Netlist.capacitor n ~plus:qb ~minus:Netlist.ground ~farads:cq
  end;
  (n, { q; qb; cvdd; cvss; wl; bl; blb })

type state = Settled of float * float | Unsettled

(* Above the flip point the state [q_init] asks for no longer exists:
   Newton started there stalls (most steps exhaust the line search's
   halvings) until its iteration limit, and only source stepping from
   zero, which ignores the start, settles the cell.  Direct attempts that
   succeed on the cold path take 1-7 iterations; the rare one that would
   take more is left to source stepping, and when that does not converge
   either the solve is [Unsettled]. *)
let direct_iterations = 20

let solve_state ?(q_init = 0.0) ~cell condition =
  let netlist, nodes = build ~cell condition in
  (* Warm-start the bistable solve on the intended lobe: Q at [q_init],
     QB at the complementary rail, sources at their own values. *)
  let dim =
    Spice.Netlist.num_nodes netlist - 1 + Spice.Netlist.vsource_count netlist
  in
  let x0 = Array.make dim 0.0 in
  let qb_init =
    if q_init > 0.5 *. condition.vddc then condition.vssc else condition.vddc
  in
  x0.(nodes.q - 1) <- q_init;
  x0.(nodes.qb - 1) <- qb_init;
  x0.(nodes.cvdd - 1) <- condition.vddc;
  x0.(nodes.cvss - 1) <- condition.vssc;
  x0.(nodes.wl - 1) <- condition.vwl;
  x0.(nodes.bl - 1) <- condition.vbl;
  x0.(nodes.blb - 1) <- condition.vblb;
  let s = Spice.Dc.operating_point ~x0 ~direct_iterations netlist in
  if s.Spice.Dc.converged then
    Settled (Spice.Dc.node_voltage s nodes.q, Spice.Dc.node_voltage s nodes.qb)
  else Unsettled

let build_half_vtc ~cell ~side ~access_on condition ~vin =
  let open Spice in
  let n = Netlist.create () in
  let input = Netlist.fresh_node n "vin" in
  let out = Netlist.fresh_node n "vout" in
  let cvdd = Netlist.fresh_node n "cvdd" in
  let cvss = Netlist.fresh_node n "cvss" in
  let wl = Netlist.fresh_node n "wl" in
  let bitline = Netlist.fresh_node n "bitline" in
  Netlist.vdc n ~plus:input ~minus:Netlist.ground ~volts:vin;
  Netlist.vdc n ~plus:cvdd ~minus:Netlist.ground ~volts:condition.vddc;
  Netlist.vdc n ~plus:cvss ~minus:Netlist.ground ~volts:condition.vssc;
  Netlist.vdc n ~plus:wl ~minus:Netlist.ground
    ~volts:(if access_on then condition.vwl else 0.0);
  let open Finfet.Variation in
  let pull_up, pull_down, access, vbitline =
    match side with
    | `Left -> (cell.pull_up_l, cell.pull_down_l, cell.access_l, condition.vbl)
    | `Right -> (cell.pull_up_r, cell.pull_down_r, cell.access_r, condition.vblb)
  in
  Netlist.vdc n ~plus:bitline ~minus:Netlist.ground ~volts:vbitline;
  Netlist.fet n ~params:pull_up ~gate:input ~drain:out ~source:cvdd ();
  Netlist.fet n ~params:pull_down ~gate:input ~drain:out ~source:cvss ();
  Netlist.fet n ~params:access ~gate:wl ~drain:bitline ~source:out ();
  (n, out)
