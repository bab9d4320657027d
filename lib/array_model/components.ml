type de = { delay : float; energy : float }

type assist = {
  vddc : float;
  vssc : float;
  vwl : float;
}

let vdd = Finfet.Tech.vdd_nominal

(* Equation (1); a component whose rail does not move is free. *)
let de ~c ~v ~dv ~i =
  if dv <= 0.0 then { delay = 0.0; energy = 0.0 }
  else begin
    assert (i > 0.0);
    { delay = c *. dv /. i; energy = c *. v *. dv }
  end

let equation1 = de

let cvdd d cur g a =
  de ~c:(Caps.cvdd d g) ~v:vdd ~dv:(a.vddc -. vdd)
    ~i:(Currents.cvdd_driver cur ~vddc:a.vddc)

let cvss d cur g a =
  de ~c:(Caps.cvss d g) ~v:vdd ~dv:(abs_float a.vssc)
    ~i:(Currents.cvss_driver cur ~vssc:a.vssc)

let wl_read d cur g _a =
  de ~c:(Caps.wl d g) ~v:vdd ~dv:vdd ~i:(Currents.wl_read cur)

let wl_write d cur g a =
  de ~c:(Caps.wl d g) ~v:vdd ~dv:a.vwl ~i:(Currents.wl_write cur ~vwl:a.vwl)

let col d cur g _a =
  if not (Geometry.has_column_mux g) then { delay = 0.0; energy = 0.0 }
  else de ~c:(Caps.col d g) ~v:vdd ~dv:vdd ~i:(Currents.col_driver cur)

let bl_read d cur g a =
  de ~c:(Caps.bl d g)
    ~v:(a.vddc -. a.vssc)
    ~dv:Finfet.Tech.delta_v_sense
    ~i:(Currents.read_current cur ~vddc:a.vddc ~vssc:a.vssc)

let bl_write d cur g _a =
  de ~c:(Caps.bl d g) ~v:vdd ~dv:vdd ~i:(Currents.bl_write cur ~n_wr:g.Geometry.n_wr)

let precharge_read d cur g _a =
  de ~c:(Caps.bl d g) ~v:vdd ~dv:Finfet.Tech.delta_v_sense
    ~i:(Currents.precharge cur ~n_pre:g.Geometry.n_pre)

let precharge_write d cur g _a =
  de ~c:(Caps.bl d g) ~v:vdd ~dv:vdd
    ~i:(Currents.precharge cur ~n_pre:g.Geometry.n_pre)
