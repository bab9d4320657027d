type linear_fit = { slope : float; intercept : float; r_squared : float }

let linear ~xs ~ys =
  let n = Array.length xs in
  if n < 2 || Array.length ys <> n then invalid_arg "Fit.linear: need >= 2 matched points";
  let nf = float_of_int n in
  let sx = Array.fold_left ( +. ) 0.0 xs in
  let sy = Array.fold_left ( +. ) 0.0 ys in
  let sxx = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let sxy = ref 0.0 in
  for i = 0 to n - 1 do
    sxy := !sxy +. (xs.(i) *. ys.(i))
  done;
  let denom = (nf *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-300 then invalid_arg "Fit.linear: degenerate abscissae";
  let slope = ((nf *. !sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let mean_y = sy /. nf in
  let ss_tot = Array.fold_left (fun a y -> a +. ((y -. mean_y) ** 2.0)) 0.0 ys in
  let ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let pred = (slope *. xs.(i)) +. intercept in
    ss_res := !ss_res +. ((ys.(i) -. pred) ** 2.0)
  done;
  let r_squared = if ss_tot < 1e-300 then 1.0 else 1.0 -. (!ss_res /. ss_tot) in
  { slope; intercept; r_squared }

type power_law_fit = { a : float; b : float; vt : float; rms_error : float }

let power_law_fixed_vt ~vt ~vs ~is_ =
  let n = Array.length vs in
  if n < 2 || Array.length is_ <> n then
    invalid_arg "Fit.power_law_fixed_vt: need >= 2 matched points";
  Array.iteri
    (fun i v ->
      if v <= vt then invalid_arg "Fit.power_law_fixed_vt: v <= vt sample";
      if is_.(i) <= 0.0 then invalid_arg "Fit.power_law_fixed_vt: nonpositive current")
    vs;
  let lx = Array.map (fun v -> log (v -. vt)) vs in
  let ly = Array.map log is_ in
  let { slope; intercept; _ } = linear ~xs:lx ~ys:ly in
  let a = slope and b = exp intercept in
  let rms = ref 0.0 in
  for i = 0 to n - 1 do
    let pred = b *. ((vs.(i) -. vt) ** a) in
    let rel = (pred -. is_.(i)) /. is_.(i) in
    rms := !rms +. (rel *. rel)
  done;
  { a; b; vt; rms_error = sqrt (!rms /. float_of_int n) }

let power_law ?vt_lo ?vt_hi vs is_ =
  let vmin = Array.fold_left min infinity vs in
  let lo = Option.value vt_lo ~default:0.0 in
  let hi = Option.value vt_hi ~default:(vmin -. 1e-3) in
  if hi <= lo then invalid_arg "Fit.power_law: empty vt range";
  let objective vt = (power_law_fixed_vt ~vt ~vs ~is_).rms_error in
  let vt, _ = Roots.golden_min ~tol:1e-7 objective ~lo ~hi in
  power_law_fixed_vt ~vt ~vs ~is_
