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

let value_at (tr : Spice.Transient.trace) ~node ~time =
  let times = tr.Spice.Transient.times and vs = tr.Spice.Transient.voltages in
  let n = Array.length times in
  if time <= times.(0) then vs.(0).(node)
  else if time >= times.(n - 1) then vs.(n - 1).(node)
  else begin
    let rec find k = if times.(k) >= time then k else find (k + 1) in
    let k = find 1 in
    let t0 = times.(k - 1) and t1 = times.(k) in
    let v0 = vs.(k - 1).(node) and v1 = vs.(k).(node) in
    if t1 = t0 then v1 else v0 +. ((v1 -. v0) *. ((time -. t0) /. (t1 -. t0)))
  end

let pvt_box =
  List.concat_map
    (fun flavor ->
      List.concat_map
        (fun corner ->
          List.map
            (fun celsius ->
              ( Printf.sprintf "%s/%s/%g" (Finfet.Library.flavor_to_string flavor)
                  (Finfet.Corners.name corner) celsius,
                flavor,
                corner,
                celsius ))
            [ -40.0; 25.0; 85.0; 125.0 ])
        Finfet.Corners.all)
    [ Finfet.Library.Lvt; Finfet.Library.Hvt ]

let capture_stdout = Golden_gen.capture_stdout

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

module Deck_print = Deck_print
module Gate_sim = Gate_sim
module Golden_gen = Golden_gen
module Oracle = Oracle
module Persist_oracle = Persist_oracle
