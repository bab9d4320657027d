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

let solve_linear_regularized jac rhs =
  (* Try a plain LU solve; on singularity, add an increasing diagonal
     conductance (gmin stepping) until the system factors. *)
  let n = Array.length rhs in
  let rec attempt gmin =
    let m = Matrix.copy jac in
    if gmin > 0.0 then
      for i = 0 to n - 1 do
        Matrix.add_to m i i gmin
      done;
    match Lu.solve m rhs with
    | x -> x
    | exception Lu.Singular ->
      if gmin > 1.0 then Array.make n 0.0 else attempt (if gmin = 0.0 then 1e-12 else gmin *. 100.0)
  in
  attempt 0.0

let solve_custom ?(tol = 1e-12) ?(max_iter = 200) ?(damping = 1.0)
    ?(max_step = 0.12) ~residual ~solve_step ~x0 () =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let base = Array.make n 0.0 in
  (* [f] is the residual at the current [x]: the line search's last
     evaluation is carried into the next iteration, not recomputed. *)
  let rec iterate iter f fnorm =
    if fnorm < tol then { x; converged = true; iterations = iter; residual = fnorm }
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
          x.(i) <- base.(i) +. (scale *. damping *. dx.(i))
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

let solve ?tol ?max_iter ?damping ?max_step ~residual ~jacobian ~x0 () =
  let solve_step x neg_f = solve_linear_regularized (jacobian x) neg_f in
  solve_custom ?tol ?max_iter ?damping ?max_step ~residual ~solve_step ~x0 ()

let solve_fd ?(tol = 1e-12) ?(max_iter = 200) ?(damping = 1.0) ?(max_step = 0.12)
    ?(eps = 1e-7) ~residual ~x0 () =
  let n = Array.length x0 in
  let jacobian x =
    let f0 = residual x in
    let jac = Matrix.create ~rows:n ~cols:n in
    let xp = Array.copy x in
    for j = 0 to n - 1 do
      let h = eps *. max 1.0 (abs_float x.(j)) in
      xp.(j) <- x.(j) +. h;
      let fj = residual xp in
      xp.(j) <- x.(j);
      for i = 0 to n - 1 do
        Matrix.set jac i j ((fj.(i) -. f0.(i)) /. h)
      done
    done;
    jac
  in
  solve ~tol ~max_iter ~damping ~max_step ~residual ~jacobian ~x0 ()
