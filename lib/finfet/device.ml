type polarity = Nfet | Pfet

type params = {
  name : string;
  polarity : polarity;
  vt : float;
  alpha : float;
  beta : float;
  s_smooth : float;
  c_gate : float;
  c_drain : float;
}

(* Soft-plus overdrive.  Guard the exponential against overflow: for
   arguments beyond ~30 the soft-plus is its argument to machine
   precision. *)
let v_overdrive p ~vgs =
  let x = (vgs -. p.vt) /. p.s_smooth in
  if x > 30.0 then vgs -. p.vt
  else p.s_smooth *. log1p (exp x)

(* Saturation factor: smooth minimum of the triode slope vds/vdsat and 1.
   m = 4 gives a SPICE-like knee without the abrupt corner of the ideal
   alpha-power model. *)
let f_sat ~vds ~vdsat =
  if vds <= 0.0 then 0.0
  else begin
    let x = vds /. vdsat in
    x /. ((1.0 +. (x ** 4.0)) ** 0.25)
  end

let ids p ~vgs ~vds =
  if vds <= 0.0 then 0.0
  else begin
    let veff = v_overdrive p ~vgs in
    let vdsat = if veff >= 0.03 then veff else 0.03 in
    p.beta *. (veff ** p.alpha) *. f_sat ~vds ~vdsat
  end

let drain_source_current p ~nfin ~vg ~vd ~vs =
  assert (nfin > 0);
  let scale = float_of_int nfin in
  let current =
    match p.polarity with
    | Nfet ->
      if vd >= vs then ids p ~vgs:(vg -. vs) ~vds:(vd -. vs)
      else -.ids p ~vgs:(vg -. vd) ~vds:(vs -. vd)
    | Pfet ->
      if vs >= vd then -.ids p ~vgs:(vs -. vg) ~vds:(vs -. vd)
      else ids p ~vgs:(vd -. vg) ~vds:(vd -. vs)
  in
  scale *. current

let i_on p = ids p ~vgs:Tech.vdd_nominal ~vds:Tech.vdd_nominal
let i_off p = ids p ~vgs:0.0 ~vds:Tech.vdd_nominal

let with_vt p vt = { p with vt }
