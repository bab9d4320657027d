let ratios = [| 1.0 /. 3.0; 0.5; 2.0 /. 3.0; 1.0; 4.0 /. 3.0; 1.5; 2.0 |]

let intrinsic_loss = 0.05

let efficiency ~v_out () =
  let v_in = Finfet.Tech.vdd_nominal in
  let target = abs_float v_out in
  if target = 0.0 then 1.0
  else if abs_float (target -. v_in) < 1e-9 then 1.0
  else begin
    (* Smallest available ratio able to source the target; an SC converter
       regulated below its ideal output wastes the difference linearly. *)
    let best = ref infinity in
    Array.iter
      (fun r ->
        let v_ideal = r *. v_in in
        if v_ideal >= target -. 1e-12 && v_ideal < !best then best := v_ideal)
      ratios;
    if Float.is_finite !best then
      (1.0 -. intrinsic_loss) *. (target /. !best)
    else
      (* Beyond the ratio set: cascade two stages, each with its loss. *)
      (1.0 -. intrinsic_loss) ** 2.0
  end

let overhead ~v_out () = 1.0 /. efficiency ~v_out ()
