let read_fit_a = 1.3
let read_fit_b = 9.5e-5
let read_fit_vt = 0.335
let ion_ratio_lvt_over_hvt = 2.0
let leakage_6t_lvt = 1.692e-9
let leakage_6t_hvt = 0.082e-9

(* P-over-N per-fin drive ratio: the pull-up is the weakest device of the
   single-fin cell, which is what makes the WL-overdrive write assist
   effective. *)
let pfet_strength_ratio = 0.75

(* NFET-equivalent leakage paths in a 6T hold state: two OFF NFETs (one
   pull-down, one access) plus one OFF PFET scaled by its drive ratio. *)
let leakage_paths_per_cell = 2.0 +. pfet_strength_ratio

let paper_read_current ~vddc ~vssc =
  let drive = vddc -. vssc -. read_fit_vt in
  if drive <= 0.0 then 0.0 else read_fit_b *. (drive ** read_fit_a)

(* Per-fin capacitances: chosen once for the technology (aF-scale values
   typical of 7nm fins); the paper never publishes its device caps, only
   wire caps, so these set the absolute delay scale while leaving every
   relative result anchored. *)
let c_gate_n = 0.020e-15
let c_drain_n = 0.035e-15
let c_gate_p = 0.022e-15
let c_drain_p = 0.038e-15

let stack_read_current ~access ~pull_down ~vwl ~vbl ~vddc ~vssc =
  if vbl <= vssc then 0.0
  else begin
    (* KCL at the internal storage node q: access current in = pull-down
       current out.  The balance is monotone in vq, so bisection is safe. *)
    let balance vq =
      let i_in = Device.ids access ~vgs:(vwl -. vq) ~vds:(vbl -. vq) in
      let i_out = Device.ids pull_down ~vgs:(vddc -. vssc) ~vds:(vq -. vssc) in
      i_in -. i_out
    in
    let vq =
      match Numerics.Roots.find_bracket balance ~lo:vssc ~hi:vbl ~n:64 with
      | Some (lo, hi) -> Numerics.Roots.brent ~tol:1e-12 balance ~lo ~hi
      | None -> vssc  (* both currents negligible: report the pull-down limit *)
    in
    Device.ids pull_down ~vgs:(vddc -. vssc) ~vds:(vq -. vssc)
  end

(* Leakage budget per flavor: paper cell leakage split over the effective
   OFF paths at nominal Vdd. *)
let ioff_target_hvt =
  leakage_6t_hvt /. Tech.vdd_nominal /. leakage_paths_per_cell

let ioff_target_lvt =
  leakage_6t_lvt /. Tech.vdd_nominal /. leakage_paths_per_cell

let base name polarity ~vt ~beta ~s_smooth =
  let open Device in
  match polarity with
  | Nfet ->
    { name; polarity; vt; alpha = read_fit_a; beta; s_smooth;
      c_gate = c_gate_n; c_drain = c_drain_n }
  | Pfet ->
    { name; polarity; vt; alpha = read_fit_a; beta; s_smooth;
      c_gate = c_gate_p; c_drain = c_drain_p }

let solve_s_for_ioff ~proto ~target =
  (* OFF current grows monotonically with the smoothing voltage (softer
     subthreshold exponent), so bracket + Brent. *)
  let objective s =
    Device.i_off { proto with Device.s_smooth = s } -. target
  in
  Numerics.Roots.brent ~tol:1e-9 objective ~lo:0.010 ~hi:0.120

let calibrate_hvt_nfet () =
  (* Step 1: a provisional device with beta equal to the paper fit's b. *)
  let rec refine proto iter =
    (* Scale beta so the simulated stack matches the paper fit at the
       reference read condition (VDDC = 550 mV, VSSC = 0, WL = BL = Vdd).
       Both stack devices scale together, so the internal node voltage is
       scale-invariant and one ratio correction suffices per pass. *)
    let target = paper_read_current ~vddc:0.550 ~vssc:0.0 in
    let got =
      stack_read_current ~access:proto ~pull_down:proto
        ~vwl:Tech.vdd_nominal ~vbl:Tech.vdd_nominal ~vddc:0.550 ~vssc:0.0
    in
    let beta = proto.Device.beta *. (target /. got) in
    let proto = { proto with Device.beta } in
    (* Step 2: set the subthreshold smoothing to hit the leakage anchor. *)
    let s_smooth = solve_s_for_ioff ~proto ~target:ioff_target_hvt in
    let proto = { proto with Device.s_smooth } in
    (* beta and s interact weakly through the soft-plus; two passes settle
       well below 0.1%. *)
    if iter >= 2 then proto else refine proto (iter + 1)
  in
  refine (base "nfet_hvt_7nm" Device.Nfet ~vt:read_fit_vt ~beta:read_fit_b ~s_smooth:0.040) 0

let calibrate_lvt_nfet ~hvt =
  let ion_target = ion_ratio_lvt_over_hvt *. Device.i_on hvt in
  let rec refine proto iter =
    (* Lower the threshold until the ON-current ratio holds... *)
    let objective vt = Device.i_on { proto with Device.vt } -. ion_target in
    let vt = Numerics.Roots.brent ~tol:1e-9 objective ~lo:0.05 ~hi:hvt.Device.vt in
    let proto = { proto with Device.vt } in
    (* ...then the swing until the OFF-current ratio holds. *)
    let s_smooth = solve_s_for_ioff ~proto ~target:ioff_target_lvt in
    let proto = { proto with Device.s_smooth } in
    if iter >= 2 then proto else refine proto (iter + 1)
  in
  refine { hvt with Device.name = "nfet_lvt_7nm" } 0

let derive_pfet nfet =
  let open Device in
  { nfet with
    name = (match nfet.polarity with
        | Nfet | Pfet -> String.concat "" [ "p"; String.sub nfet.name 1 (String.length nfet.name - 1) ]);
    polarity = Pfet;
    beta = pfet_strength_ratio *. nfet.beta;
    c_gate = c_gate_p;
    c_drain = c_drain_p }
