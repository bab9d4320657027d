(* Minimum supply at which the hold SNM still exceeds the technology
   rule's fraction (0.35) of Vdd, to 2 mV: bisection over the monotone
   HSNM/Vdd-fraction curve.  The technology nominal if even that fails
   (degenerate cells under heavy variation). *)
let retention_voltage ~cell =
  let vdd_nom = Finfet.Tech.vdd_nominal in
  let gap vdd =
    Margins.hold_snm ~points:41 ~cell vdd -. (Finfet.Tech.min_margin_fraction *. vdd)
  in
  if gap vdd_nom < 0.0 then vdd_nom
  else begin
    (* The normalized margin is monotone in Vdd over the technology range;
       find the lowest supply still meeting the fraction. *)
    match Numerics.Roots.find_bracket gap ~lo:0.05 ~hi:vdd_nom ~n:16 with
    | None -> 0.05 (* meets the rule over the whole range *)
    | Some (lo, hi) -> Numerics.Roots.bisect ~tol:2e-3 gap ~lo ~hi
  end

type standby_summary = {
  v_retention : float;
  v_standby : float;
  p_active : float;
  p_standby : float;
  savings : float;
}

let standby ~cell () =
  let v_retention = retention_voltage ~cell in
  let v_standby = min Finfet.Tech.vdd_nominal (v_retention +. 0.050) in
  let p_active = Leakage.power ~cell () in
  let p_standby = Leakage.power ~vdd:v_standby ~cell () in
  { v_retention; v_standby; p_active; p_standby;
    savings = 1.0 -. (p_standby /. p_active) }
