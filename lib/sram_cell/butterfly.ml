type vtc = { inputs : float array; outputs : float array }

let trace_vtc ?(points = 81) ~cell ~side ~access_on condition =
  assert (points >= 2);
  let lo = min condition.Sram6t.vssc 0.0 in
  let hi = condition.Sram6t.vddc in
  let inputs =
    Array.init points (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)))
  in
  (* The input is the half-cell's first voltage source: sweep it. *)
  let netlist, out_node = Sram6t.build_half_vtc ~cell ~side ~access_on condition ~vin:lo in
  let solutions = Spice.Dc.sweep netlist ~source:0 ~points:inputs in
  let outputs = Array.map (fun s -> Spice.Dc.node_voltage s out_node) solutions in
  { inputs; outputs }

type butterfly = { curve_r : vtc; curve_l : vtc }

(* A cell whose two halves hold the very same device records and whose
   bitlines sit at bit-equal levels (every nominal or corner cell under
   hold and read) gets the same half-cell netlist from
   {!Sram6t.build_half_vtc} on either side, so the two sweeps would be
   bit-identical: sweep once and use the curve for both halves. *)
let symmetric ~cell condition =
  let open Finfet.Variation in
  cell.pull_up_l == cell.pull_up_r
  && cell.pull_down_l == cell.pull_down_r
  && cell.access_l == cell.access_r
  && Int64.equal
       (Int64.bits_of_float condition.Sram6t.vbl)
       (Int64.bits_of_float condition.Sram6t.vblb)

let trace ?points ~cell ~access_on condition =
  let curve side = trace_vtc ?points ~cell ~side ~access_on condition in
  let curve_r = curve `Right in
  { curve_r; curve_l = (if symmetric ~cell condition then curve_r else curve `Left) }

type snm = { lobe_high : float; lobe_low : float }

(* Largest square in the eye bounded above by [upper] (y = u(x)) and on the
   lower-left by [lower] (x = l(y)).  Both touching corners of the maximal
   square lie on a common 45-degree line y = x + b; the square side equals
   the horizontal distance between the two intersection points.  We scan b
   and keep the best.

   At offset b the two intersections are the roots of g(x) = u(x) - x - b
   and h(y) = l(y) - y + b, each first bracketed by a 64-step scan of
   [lo, hi] (the scan of {!Numerics.Roots.find_bracket}).  The scan's
   abscissae do not depend on b, so u(x) - x and l(y) - y are tabulated
   there once per lobe; subtracting or adding b to a tabulated value is
   the same floating-point operation g and h perform, so the brackets,
   and the Brent solves inside them, are bit-identical to a fresh scan per
   offset. *)
let scan_steps = 64

let lobe ~upper ~lower =
  let u = Numerics.Interp.pchip ~xs:upper.inputs ~ys:upper.outputs in
  let l = Numerics.Interp.pchip ~xs:lower.inputs ~ys:lower.outputs in
  let lo = upper.inputs.(0) in
  let hi = upper.inputs.(Array.length upper.inputs - 1) in
  let span = hi -. lo in
  let step = span /. float_of_int scan_steps in
  (* find_bracket's points: lo itself, then lo + i step. *)
  let abscissae =
    Array.init (scan_steps + 1) (fun i -> if i = 0 then lo else lo +. (float_of_int i *. step))
  in
  let u_gap = Array.map (fun x -> u x -. x) abscissae in
  let l_gap = Array.map (fun y -> l y -. y) abscissae in
  (* First i with f(x_{i-1}) f(x_i) <= 0, as find_bracket's scan. *)
  let bracket f =
    let rec scan i prev =
      if i > scan_steps then None
      else begin
        let fx = f i in
        if prev *. fx <= 0.0 then Some (abscissae.(i - 1), abscissae.(i))
        else scan (i + 1) fx
      end
    in
    scan 1 (f 0)
  in
  let side_at b =
    (* Intersection with the upper curve: u(x) = x + b. *)
    let g x = u x -. x -. b in
    (* Intersection with the lower curve: point (l(y), y) on the line means
       l(y) = y - b. *)
    let h y = l y -. y +. b in
    match
      (bracket (fun i -> u_gap.(i) -. b), bracket (fun i -> l_gap.(i) +. b))
    with
    | Some (glo, ghi), Some (hlo, hhi) ->
      let x1 = Numerics.Roots.brent ~tol:1e-9 g ~lo:glo ~hi:ghi in
      let y2 = Numerics.Roots.brent ~tol:1e-9 h ~lo:hlo ~hi:hhi in
      let x2 = y2 -. b in
      x1 -. x2
    | None, (Some _ | None) | Some _, None -> neg_infinity
  in
  let best = ref 0.0 in
  let steps = 160 in
  for k = 1 to steps - 1 do
    let b = span *. float_of_int k /. float_of_int steps in
    let s = side_at b in
    if s > !best then best := s
  done;
  !best

let snm_of_butterfly { curve_r; curve_l } =
  (* Upper-left eye: curve R bounds it from above, curve L from the
     lower-left.  The lower-right eye is the same picture with the axes
     swapped (a reflection across y = x), which simply exchanges the two
     curves' roles. *)
  let lobe_high = lobe ~upper:curve_r ~lower:curve_l in
  (* With one curve in both roles, the second lobe is the first one's
     computation over again. *)
  let lobe_low =
    if curve_l == curve_r then lobe_high else lobe ~upper:curve_l ~lower:curve_r
  in
  { lobe_high; lobe_low }

let worst_snm { lobe_high; lobe_low } = min lobe_high lobe_low

let hold_snm ?points ~cell condition =
  worst_snm (snm_of_butterfly (trace ?points ~cell ~access_on:false condition))

let read_snm ?points ~cell condition =
  worst_snm (snm_of_butterfly (trace ?points ~cell ~access_on:true condition))
