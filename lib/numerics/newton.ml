type result = {
  x : float array;
  converged : bool;
  iterations : int;
  residual : float;
}

(* Stdlib [max] folded over |v_i| from 0, with the comparison on floats. *)
let norm_inf v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let a = abs_float v.(i) in
    if not (!acc >= a) then acc := a
  done;
  !acc

let solve_custom ?(tol = 1e-12) ?(max_iter = 200) ?(min_iter = 0) ?(max_step = 0.12)
    ~residual ~solve_step ~x0 () =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let base = Array.make n 0.0 in
  (* [f] is the residual at the current [x]: the line search's last
     evaluation is carried into the next iteration, not recomputed. *)
  let rec iterate iter f fnorm =
    if fnorm < tol && iter >= min_iter then
      { x; converged = true; iterations = iter; residual = fnorm }
    else if iter >= max_iter then
      { x; converged = false; iterations = iter; residual = fnorm }
    else begin
      let neg_f = Array.map (fun v -> -.v) f in
      let dx = solve_step x neg_f in
      (* Clamp each component to the trust region. *)
      for i = 0 to n - 1 do
        if dx.(i) > max_step then dx.(i) <- max_step
        else if dx.(i) < -.max_step then dx.(i) <- -.max_step
      done;
      (* Backtracking line search on the residual norm. *)
      Array.blit x 0 base 0 n;
      let rec backtrack scale tries =
        for i = 0 to n - 1 do
          x.(i) <- base.(i) +. (scale *. dx.(i))
        done;
        let f = residual x in
        let fnew = norm_inf f in
        if fnew < fnorm || tries >= 8 then (f, fnew)
        else backtrack (scale *. 0.5) (tries + 1)
      in
      let f, fnew = backtrack 1.0 0 in
      iterate (iter + 1) f fnew
    end
  in
  let f = residual x in
  iterate 0 f (norm_inf f)
