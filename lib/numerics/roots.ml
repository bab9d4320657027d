exception No_bracket

let bisect ?(tol = 1e-12) f ~lo ~hi =
  let flo = f lo in
  let fhi = f hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if flo *. fhi > 0.0 then raise No_bracket
  else begin
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo < tol || iter >= 200 then mid
      else begin
        let fmid = f mid in
        if fmid = 0.0 then mid
        else if flo *. fmid < 0.0 then loop lo mid flo (iter + 1)
        else loop mid hi fmid (iter + 1)
      end
    in
    loop lo hi flo 0
  end

(* Brent's method, following the classic Numerical Recipes formulation. *)
let brent ?(tol = 1e-12) f ~lo ~hi =
  let a = ref lo and b = ref hi in
  let fa = ref (f lo) and fb = ref (f hi) in
  if !fa = 0.0 then lo
  else if !fb = 0.0 then hi
  else if !fa *. !fb > 0.0 then raise No_bracket
  else begin
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref nan in
    (try
       for _ = 1 to 100 do
         if (!fb > 0.0 && !fc > 0.0) || (!fb < 0.0 && !fc < 0.0) then begin
           c := !a; fc := !fa; d := !b -. !a; e := !d
         end;
         if abs_float !fc < abs_float !fb then begin
           a := !b; b := !c; c := !a;
           fa := !fb; fb := !fc; fc := !fa
         end;
         let tol1 = (2.0 *. epsilon_float *. abs_float !b) +. (0.5 *. tol) in
         let xm = 0.5 *. (!c -. !b) in
         if abs_float xm <= tol1 || !fb = 0.0 then begin
           result := !b;
           raise Exit
         end;
         if abs_float !e >= tol1 && abs_float !fa > abs_float !fb then begin
           let s = !fb /. !fa in
           let p, q =
             if !a = !c then begin
               let p = 2.0 *. xm *. s in
               let q = 1.0 -. s in
               (p, q)
             end else begin
               let q = !fa /. !fc in
               let r = !fb /. !fc in
               let p = s *. ((2.0 *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.0))) in
               let q = (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0) in
               (p, q)
             end
           in
           let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
           let min1 = (3.0 *. xm *. q) -. abs_float (tol1 *. q) in
           let min2 = abs_float (!e *. q) in
           if 2.0 *. p < (if min1 <= min2 then min1 else min2) then begin
             e := !d; d := p /. q
           end else begin
             d := xm; e := !d
           end
         end else begin
           d := xm; e := !d
         end;
         a := !b; fa := !fb;
         if abs_float !d > tol1 then b := !b +. !d
         else b := !b +. (if xm >= 0.0 then tol1 else -.tol1);
         fb := f !b
       done;
       result := !b
     with Exit -> ());
    !result
  end

let golden_min ?(tol = 1e-10) f ~lo ~hi =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let rec loop a b c d fc fd =
    if b -. a < tol then begin
      let x = 0.5 *. (a +. b) in
      (x, f x)
    end
    else if fc < fd then begin
      let b' = d in
      let d' = c in
      let c' = b' -. (phi *. (b' -. a)) in
      loop a b' c' d' (f c') fc
    end else begin
      let a' = c in
      let c' = d in
      let d' = a' +. (phi *. (b -. a')) in
      loop a' b c' d' fd (f d')
    end
  in
  let c = hi -. (phi *. (hi -. lo)) in
  let d = lo +. (phi *. (hi -. lo)) in
  loop lo hi c d (f c) (f d)

let find_bracket f ~lo ~hi ~n =
  assert (n > 0);
  let step = (hi -. lo) /. float_of_int n in
  let rec scan i prev_x prev_f =
    if i > n then None
    else begin
      let x = lo +. (float_of_int i *. step) in
      let fx = f x in
      if prev_f *. fx <= 0.0 then Some (prev_x, x) else scan (i + 1) x fx
    end
  in
  scan 1 lo (f lo)
