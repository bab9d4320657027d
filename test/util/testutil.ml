let check_close ?(tol = 1e-9) msg expected actual =
  let scale = max (max (abs_float expected) (abs_float actual)) 1e-30 in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected
      actual tol

let check_close_abs ?(tol = 1e-12) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (abs tol %g)" msg expected
      actual tol

let check_within msg ~lo ~hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %.12g outside [%.12g, %.12g]" msg x lo hi

let check_increasing ?(strict = false) msg xs =
  for i = 0 to Array.length xs - 2 do
    let ok = if strict then xs.(i) < xs.(i + 1) else xs.(i) <= xs.(i + 1) in
    if not ok then
      Alcotest.failf "%s: not increasing at index %d (%.12g -> %.12g)" msg i
        xs.(i) xs.(i + 1)
  done

let check_decreasing ?(strict = false) msg xs =
  for i = 0 to Array.length xs - 2 do
    let ok = if strict then xs.(i) > xs.(i + 1) else xs.(i) >= xs.(i + 1) in
    if not ok then
      Alcotest.failf "%s: not decreasing at index %d (%.12g -> %.12g)" msg i
        xs.(i) xs.(i + 1)
  done

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

module Gate_sim = Gate_sim
module Golden_gen = Golden_gen
module Oracle = Oracle
