exception Singular

type factors = { lu : Matrix.t; perm : int array }

let pivot_threshold = 1e-14

let factorize_in_place m ~perm =
  let n = Matrix.rows m in
  assert (Matrix.cols m = n && Array.length perm = n);
  let a = Matrix.storage m in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let rk = k * n in
    (* Partial pivoting: bring the largest remaining |entry| in column k up. *)
    let pivot_row = ref k in
    let pivot_val = ref (abs_float a.(rk + k)) in
    for i = k + 1 to n - 1 do
      let v = abs_float a.((i * n) + k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val < pivot_threshold then raise Singular;
    let r = !pivot_row in
    if r <> k then begin
      let rr = r * n in
      for j = 0 to n - 1 do
        let tmp = a.(rk + j) in
        a.(rk + j) <- a.(rr + j);
        a.(rr + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(r);
      perm.(r) <- tmp
    end;
    let pivot = a.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = a.(ri + k) /. pivot in
      a.(ri + k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          a.(ri + j) <- a.(ri + j) +. (-.factor *. a.(rk + j))
        done
    done
  done;
  { lu = m; perm }

let factorize m =
  factorize_in_place (Matrix.copy m) ~perm:(Array.make (Matrix.rows m) 0)

let solve_factored { lu; perm } b =
  let n = Matrix.rows lu in
  assert (Array.length b = n);
  let a = Matrix.storage lu in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution with unit-lower L. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.((i * n) + i)
  done;
  x

let solve m b = solve_factored (factorize m) b

let solve_least_squares a b =
  let at = Matrix.transpose a in
  let ata = Matrix.mat_mul at a in
  let atb = Matrix.mat_vec at b in
  solve ata atb
