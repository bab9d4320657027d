let check_increasing xs =
  for i = 0 to Array.length xs - 2 do
    if xs.(i) >= xs.(i + 1) then
      invalid_arg "Interp: abscissae must be strictly increasing"
  done

(* Index of the segment [xs.(i), xs.(i+1)] containing x (clamped).  The
   annotation keeps the comparisons on floats: unannotated, they would go
   through polymorphic compare. *)
let segment_index (xs : float array) (x : float) =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

module Table1d = struct
  type t = { xs : float array; ys : float array }

  let create xs ys =
    if Array.length xs <> Array.length ys then
      invalid_arg "Table1d.create: length mismatch";
    if Array.length xs < 2 then invalid_arg "Table1d.create: need >= 2 points";
    check_increasing xs;
    { xs = Array.copy xs; ys = Array.copy ys }

  let of_fn ~lo ~hi ~n f =
    if n < 2 then invalid_arg "Table1d.of_fn: need n >= 2";
    let xs =
      Array.init n (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
    in
    let ys = Array.map f xs in
    create xs ys

  let eval_by xs y x =
    let n = Array.length xs in
    if x <= xs.(0) then y 0
    else if x >= xs.(n - 1) then y (n - 1)
    else begin
      let i = segment_index xs x in
      let frac = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
      let y0 = y i in
      y0 +. (frac *. (y (i + 1) -. y0))
    end

  let eval t x = eval_by t.xs (Array.get t.ys) x

  let domain t = (t.xs.(0), t.xs.(Array.length t.xs - 1))
  let xs t = Array.copy t.xs
  let ys t = Array.copy t.ys
end

module Table2d = struct
  type t = {
    xs : float array;
    ys : float array;
    zs : float array array;
  }

  let create ~xs ~ys zs =
    if Array.length zs <> Array.length xs then
      invalid_arg "Table2d.create: zs rows must match xs";
    Array.iter
      (fun row ->
        if Array.length row <> Array.length ys then
          invalid_arg "Table2d.create: zs cols must match ys")
      zs;
    if Array.length xs < 2 || Array.length ys < 2 then
      invalid_arg "Table2d.create: need >= 2 points per axis";
    check_increasing xs;
    check_increasing ys;
    { xs = Array.copy xs; ys = Array.copy ys; zs = Array.map Array.copy zs }

  let clamp01 v = max 0.0 (min 1.0 v)

  let eval t ~x ~y =
    let i = segment_index t.xs x and j = segment_index t.ys y in
    let fx = clamp01 ((x -. t.xs.(i)) /. (t.xs.(i + 1) -. t.xs.(i)))
    and fy = clamp01 ((y -. t.ys.(j)) /. (t.ys.(j + 1) -. t.ys.(j))) in
    let z00 = t.zs.(i).(j) and z10 = t.zs.(i + 1).(j) in
    let z01 = t.zs.(i).(j + 1) and z11 = t.zs.(i + 1).(j + 1) in
    (z00 *. (1.0 -. fx) *. (1.0 -. fy))
    +. (z10 *. fx *. (1.0 -. fy))
    +. (z01 *. (1.0 -. fx) *. fy)
    +. (z11 *. fx *. fy)
end

(* Fritsch-Carlson monotone cubic interpolation. *)
let pchip ~xs ~ys =
  if Array.length xs <> Array.length ys then invalid_arg "pchip: length mismatch";
  let n = Array.length xs in
  if n < 2 then invalid_arg "pchip: need >= 2 points";
  check_increasing xs;
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let m = Array.make n 0.0 in
  m.(0) <- delta.(0);
  m.(n - 1) <- delta.(n - 2);
  for i = 1 to n - 2 do
    if delta.(i - 1) *. delta.(i) <= 0.0 then m.(i) <- 0.0
    else begin
      let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
      let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
      m.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
    end
  done;
  fun x ->
    (* Stdlib [max xs.(0) (min xs.(n - 1) x)], on floats. *)
    let x = if xs.(n - 1) <= x then xs.(n - 1) else x in
    let x = if xs.(0) >= x then xs.(0) else x in
    let i = segment_index xs x in
    let t = (x -. xs.(i)) /. h.(i) in
    let t2 = t *. t and t3 = t *. t *. t in
    let h00 = (2.0 *. t3) -. (3.0 *. t2) +. 1.0 in
    let h10 = t3 -. (2.0 *. t2) +. t in
    let h01 = (-2.0 *. t3) +. (3.0 *. t2) in
    let h11 = t3 -. t2 in
    (h00 *. ys.(i))
    +. (h10 *. h.(i) *. m.(i))
    +. (h01 *. ys.(i + 1))
    +. (h11 *. h.(i) *. m.(i + 1))
