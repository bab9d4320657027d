type bank_design = {
  banks : int;
  per_bank : Opt.Exhaustive.result;
  htree_length : float;
  d_htree : float;
  e_htree : float;
  d_total : float;
  e_total : float;
  edp : float;
  area : float;
}

let evaluate_banking ?space ~env ~capacity_bits ~method_ ~banks () =
  let w = 64 in
  if not (Array_model.Geometry.is_power_of_two banks) then
    invalid_arg "Banked.evaluate_banking: banks must be a power of two";
  if capacity_bits mod banks <> 0
     || not (Array_model.Geometry.is_power_of_two (capacity_bits / banks))
  then invalid_arg "Banked.evaluate_banking: capacity does not split evenly";
  let bank_bits = capacity_bits / banks in
  let per_bank =
    Opt.Exhaustive.search ?space ~w ~env ~capacity_bits:bank_bits ~method_ ()
  in
  let best = per_bank.Opt.Exhaustive.best in
  let m = best.Opt.Exhaustive.metrics in
  let bank_area = Array_model.Geometry.area best.Opt.Exhaustive.geometry in
  let area = float_of_int banks *. bank_area in
  let tree = Htree.of_technology ~lib:env.Array_model.Array_eval.lib in
  (* Every configuration pays the route from the port across its own
     footprint — a monolithic array still has to get address and data to
     its far corner, so banking is judged on the array-versus-leakage
     trade-off, not on a free ride for banks = 1. *)
  let htree_length = Htree.route_length ~total_area:area in
  let d_htree = Htree.delay tree ~length:htree_length in
  (* Address plus data wires toggle; roughly half the W data bits switch. *)
  let toggling_wires =
    let address_bits =
      int_of_float (ceil (log (float_of_int capacity_bits) /. log 2.0))
    in
    float_of_int address_bits +. (0.5 *. float_of_int w)
  in
  let e_htree = toggling_wires *. Htree.energy tree ~length:htree_length in
  let d_total = d_htree +. m.Array_model.Array_eval.d_array in
  (* Rebuild the energy from its parts: the accessed bank's switching
     energy (alpha-weighted as in Equation (5)), the tree, and leakage of
     every cell in every bank over the whole (longer) cycle. *)
  let p_leak_cell =
    env.Array_model.Array_eval.periphery.Array_model.Periphery.p_leak_cell
  in
  let e_leak_total = float_of_int capacity_bits *. p_leak_cell *. d_total in
  let e_total =
    (env.Array_model.Array_eval.alpha
     *. (m.Array_model.Array_eval.e_switching +. e_htree))
    +. e_leak_total
  in
  { banks; per_bank; htree_length; d_htree; e_htree; d_total; e_total;
    edp = e_total *. d_total; area }

let optimize ?space ?(max_banks = 16) ~env ~capacity_bits ~method_ () =
  let rec bank_counts b acc =
    if b > max_banks || capacity_bits / b < 512 then List.rev acc
    else bank_counts (2 * b) (b :: acc)
  in
  let candidates = bank_counts 1 [] in
  assert (candidates <> []);
  let designs =
    List.map
      (fun banks -> evaluate_banking ?space ~env ~capacity_bits ~method_ ~banks ())
      candidates
  in
  let best =
    List.fold_left
      (fun acc d -> if d.edp < acc.edp then d else acc)
      (List.hd designs) (List.tl designs)
  in
  (best, designs)
