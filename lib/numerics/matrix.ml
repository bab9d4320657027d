type t = { data : float array; nrows : int; ncols : int }

let create ~rows ~cols =
  assert (rows > 0 && cols > 0);
  { data = Array.make (rows * cols) 0.0; nrows = rows; ncols = cols }

let identity n =
  let m = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let of_arrays rows_arr =
  let nrows = Array.length rows_arr in
  assert (nrows > 0);
  let ncols = Array.length rows_arr.(0) in
  Array.iter (fun r -> assert (Array.length r = ncols)) rows_arr;
  let m = create ~rows:nrows ~cols:ncols in
  for i = 0 to nrows - 1 do
    Array.blit rows_arr.(i) 0 m.data (i * ncols) ncols
  done;
  m

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  assert (i >= 0 && i < m.nrows && j >= 0 && j < m.ncols);
  m.data.((i * m.ncols) + j)

let set m i j x =
  assert (i >= 0 && i < m.nrows && j >= 0 && j < m.ncols);
  m.data.((i * m.ncols) + j) <- x

let add_to m i j x =
  assert (i >= 0 && i < m.nrows && j >= 0 && j < m.ncols);
  let k = (i * m.ncols) + j in
  m.data.(k) <- m.data.(k) +. x

let copy m = { m with data = Array.copy m.data }
let fill m x = Array.fill m.data 0 (Array.length m.data) x

let blit ~src ~dst =
  assert (src.nrows = dst.nrows && src.ncols = dst.ncols);
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let storage m = m.data

let mat_vec m v =
  assert (Array.length v = m.ncols);
  Array.init m.nrows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.ncols - 1 do
        acc := !acc +. (m.data.((i * m.ncols) + j) *. v.(j))
      done;
      !acc)

let transpose m =
  let t = create ~rows:m.ncols ~cols:m.nrows in
  for i = 0 to m.nrows - 1 do
    for j = 0 to m.ncols - 1 do
      t.data.((j * t.ncols) + i) <- m.data.((i * m.ncols) + j)
    done
  done;
  t

let mat_mul a b =
  assert (a.ncols = b.nrows);
  let c = create ~rows:a.nrows ~cols:b.ncols in
  for i = 0 to a.nrows - 1 do
    for k = 0 to a.ncols - 1 do
      let aik = a.data.((i * a.ncols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.ncols - 1 do
          c.data.((i * c.ncols) + j) <-
            c.data.((i * c.ncols) + j) +. (aik *. b.data.((k * b.ncols) + j))
        done
    done
  done;
  c

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.ncols - 1 do
      Format.fprintf ppf " %10.4g" (get m i j)
    done;
    Format.fprintf ppf " ]@."
  done
