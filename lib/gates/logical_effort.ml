type gate = {
  g : float;
  p : float;
  c_in : float;
  c_par : float;
  nfin : int;
}

(* The 0.5 factor calibrates the effective switching resistance against
   transistor-level transients of this device model (the test oracle
   test/util/gate_sim.ml, checked in test_gates): a device spends the
   swing mostly in saturation at nearly I_on, so the classic Vdd / I_on
   convention overstates R by ~2x here. *)
let r_eff params =
  0.5 *. Finfet.Tech.vdd_nominal /. Finfet.Device.i_on params

let tau ~nfet ~pfet =
  let r = max (r_eff nfet) (r_eff pfet) in
  r *. (nfet.Finfet.Device.c_gate +. pfet.Finfet.Device.c_gate)

let inverter ~nfet ~pfet ~nfin =
  assert (nfin > 0);
  let scale = float_of_int nfin in
  { g = 1.0;
    p = 1.0;
    c_in = scale *. (nfet.Finfet.Device.c_gate +. pfet.Finfet.Device.c_gate);
    c_par = scale *. (nfet.Finfet.Device.c_drain +. pfet.Finfet.Device.c_drain);
    nfin }

let nand ~nfet ~pfet ~inputs ~nfin =
  assert (inputs >= 1 && nfin > 0);
  let m = float_of_int inputs in
  let scale = float_of_int nfin in
  (* The m-stack NFET is upsized by m to keep the pull-down drive, which is
     what the classical (m+2)/3 effort assumes. *)
  let c_in =
    scale *. ((m *. nfet.Finfet.Device.c_gate) +. pfet.Finfet.Device.c_gate)
  in
  let c_par =
    scale
    *. ((m *. nfet.Finfet.Device.c_drain) +. (m *. pfet.Finfet.Device.c_drain))
  in
  { g = (m +. 2.0) /. 3.0; p = m; c_in; c_par; nfin }

let stage_delay ~tau gate ~c_load =
  let h = c_load /. gate.c_in in
  tau *. ((gate.g *. h) +. gate.p)

let stage_energy gate ~c_load ~vdd = (gate.c_par +. c_load) *. vdd *. vdd

type chain_result = { delay : float; energy : float }

let chain ~tau ~vdd ~stages =
  let rec loop acc_d acc_e = function
    | [] -> { delay = acc_d; energy = acc_e }
    | (gate, extra) :: rest ->
      let next_c_in = match rest with [] -> 0.0 | (g2, _) :: _ -> g2.c_in in
      let c_load = extra +. next_c_in in
      loop
        (acc_d +. stage_delay ~tau gate ~c_load)
        (acc_e +. stage_energy gate ~c_load ~vdd)
        rest
  in
  loop 0.0 0.0 stages
