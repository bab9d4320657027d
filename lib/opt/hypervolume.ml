(* Exact hypervolume indicators for minimization fronts.

   The hypervolume of a point set P with respect to a reference point r
   is the Lebesgue measure of the region dominated by P and bounded by
   r: volume { y : exists p in P, p <= y <= r }.  It is the standard
   strictly-Pareto-compliant quality indicator for approximate fronts —
   an approximation whose hypervolume reaches >= 99% of the true
   front's cannot have lost a significant region of the trade-off. *)

(* 2D: sort by the first objective ascending (second ascending as the
   tie-break so the better duplicate is swept first), then accumulate
   rectangles against a falling second-objective water line.  Dominated
   and out-of-reference points contribute nothing by construction. *)
let hv2 ~ref_:(rx, ry) points =
  let sorted =
    List.sort
      (fun (x1, y1) (x2, y2) ->
        let c = compare x1 x2 in
        if c <> 0 then c else compare y1 y2)
      points
  in
  let hv = ref 0.0 in
  let water = ref ry in
  List.iter
    (fun (x, y) ->
      if x < rx && y < !water then begin
        hv := !hv +. ((rx -. x) *. (!water -. y));
        water := y
      end)
    sorted;
  !hv

(* Reference point for comparing an approximate front against the true
   one: the nadir of the true front pushed out by [margin], so boundary
   points still contribute area and both fronts are measured against
   the same box. *)
let reference points =
  match points with
  | [] -> invalid_arg "Hypervolume.reference: empty front"
  | (x0, y0) :: rest ->
    let wx, wy =
      List.fold_left
        (fun (mx, my) (x, y) -> (Float.max mx x, Float.max my y))
        (x0, y0) rest
    in
    let pad w = if w = 0.0 then 1e-30 else abs_float w *. 0.1 in
    (wx +. pad wx, wy +. pad wy)

let ratio ~truth approx =
  let ref_ = reference truth in
  let hv_truth = hv2 ~ref_ truth in
  if hv_truth <= 0.0 then (if approx = [] then 0.0 else 1.0)
  else hv2 ~ref_ approx /. hv_truth
