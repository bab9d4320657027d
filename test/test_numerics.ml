(* Unit and property tests for the numerics substrate. *)

open Testutil

(* --- Rng --- *)

let rng_tests =
  [ case "equal seeds give equal streams" (fun () ->
        let a = Numerics.Rng.create ~seed:7 in
        let b = Numerics.Rng.create ~seed:7 in
        for _ = 1 to 100 do
          check_close "stream" (Numerics.Rng.uniform a) (Numerics.Rng.uniform b)
        done);
    case "different seeds give different streams" (fun () ->
        let a = Numerics.Rng.create ~seed:1 in
        let b = Numerics.Rng.create ~seed:2 in
        let same = ref 0 in
        for _ = 1 to 50 do
          if Numerics.Rng.uniform a = Numerics.Rng.uniform b then incr same
        done;
        Alcotest.(check bool) "streams differ" true (!same < 5));
    case "uniform stays in [0,1)" (fun () ->
        let rng = Numerics.Rng.create ~seed:3 in
        for _ = 1 to 10_000 do
          check_within "uniform" ~lo:0.0 ~hi:0.999999999999 (Numerics.Rng.uniform rng)
        done);
    case "uniform mean near 0.5" (fun () ->
        let rng = Numerics.Rng.create ~seed:5 in
        let n = 20_000 in
        let acc = ref 0.0 in
        for _ = 1 to n do
          acc := !acc +. Numerics.Rng.uniform rng
        done;
        check_within "mean" ~lo:0.49 ~hi:0.51 (!acc /. float_of_int n));
    case "gaussian moments" (fun () ->
        let rng = Numerics.Rng.create ~seed:6 in
        let xs =
          Array.init 20_000 (fun _ -> Numerics.Rng.gaussian rng ~mu:3.0 ~sigma:2.0)
        in
        check_within "mu" ~lo:2.95 ~hi:3.05 (Numerics.Stats.mean xs);
        check_within "sigma" ~lo:1.95 ~hi:2.05 (Numerics.Stats.stddev xs));
    case "int_below bounds and coverage" (fun () ->
        let rng = Numerics.Rng.create ~seed:8 in
        let seen = Array.make 10 false in
        for _ = 1 to 1000 do
          let k = Numerics.Rng.int_below rng 10 in
          Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
          seen.(k) <- true
        done;
        Array.iteri
          (fun i s -> Alcotest.(check bool) (Printf.sprintf "saw %d" i) true s)
          seen) ]


(* --- Stats --- *)

let stats_tests =
  [ case "mean" (fun () -> check_close "mean" 2.5 (Numerics.Stats.mean [| 1.;2.;3.;4. |]));
    case "variance unbiased" (fun () ->
        check_close ~tol:1e-12 "var" (5.0 /. 3.0)
          (Numerics.Stats.stddev [| 1.;2.;3.;4. |] ** 2.0));
    case "variance of singleton is zero" (fun () ->
        check_close_abs "var1" 0.0 (Numerics.Stats.stddev [| 42.0 |]));
    case "stddev" (fun () ->
        check_close "sd" (sqrt (5.0 /. 3.0)) (Numerics.Stats.stddev [| 1.;2.;3.;4. |]));
    case "mu_minus_k_sigma" (fun () ->
        let xs = [| 1.; 2.; 3.; 4. |] in
        check_close "mks"
          (Numerics.Stats.mean xs -. (3.0 *. Numerics.Stats.stddev xs))
          (Numerics.Stats.mu_minus_k_sigma xs ~k:3.0));
    case "normal_cdf anchors" (fun () ->
        check_close ~tol:1e-6 "median" 0.5 (Numerics.Stats.normal_cdf 0.0);
        check_close ~tol:1e-4 "95th two-sided" 0.975 (Numerics.Stats.normal_cdf 1.96);
        check_close ~tol:1e-4 "one sigma" 0.8413 (Numerics.Stats.normal_cdf 1.0);
        check_close ~tol:1e-4 "shifted" 0.8413
          (Numerics.Stats.normal_cdf ~mu:2.0 ~sigma:3.0 5.0));
    case "normal_cdf symmetry" (fun () ->
        check_close ~tol:1e-7 "sym" 1.0
          (Numerics.Stats.normal_cdf 1.3 +. Numerics.Stats.normal_cdf (-1.3)));
    case "log_choose matches small factorials" (fun () ->
        (* With p = 1/2 every outcome weighs 2^-n, so the binomial pmf
           exposes C(n, k) itself. *)
        let pmf n k =
          Numerics.Stats.binomial_cdf ~n ~p:0.5 k
          -. (if k = 0 then 0.0 else Numerics.Stats.binomial_cdf ~n ~p:0.5 (k - 1))
        in
        check_close ~tol:1e-9 "10 choose 3" 120.0 (pmf 10 3 *. 1024.0);
        check_close ~tol:1e-12 "edge" 1.0 (pmf 7 0 *. 128.0));
    case "binomial_cdf anchors" (fun () ->
        check_close ~tol:1e-6 "fair coin" 0.623046875
          (Numerics.Stats.binomial_cdf ~n:10 ~p:0.5 5);
        check_close ~tol:1e-12 "all" 1.0 (Numerics.Stats.binomial_cdf ~n:5 ~p:0.3 5);
        check_close ~tol:1e-12 "none" (0.7 ** 5.0)
          (Numerics.Stats.binomial_cdf ~n:5 ~p:0.3 0);
        check_close ~tol:1e-12 "p zero" 1.0 (Numerics.Stats.binomial_cdf ~n:9 ~p:0.0 0)) ]

(* --- Roots --- *)

let roots_tests =
  let f x = (x *. x) -. 2.0 in
  [ case "bisect sqrt2" (fun () ->
        check_close ~tol:1e-9 "sqrt2" (sqrt 2.0)
          (Numerics.Roots.bisect f ~lo:0.0 ~hi:2.0));
    case "brent sqrt2" (fun () ->
        check_close ~tol:1e-9 "sqrt2" (sqrt 2.0)
          (Numerics.Roots.brent f ~lo:0.0 ~hi:2.0));
    case "brent on transcendental" (fun () ->
        let g x = cos x -. x in
        check_close ~tol:1e-9 "dottie" 0.7390851332151607
          (Numerics.Roots.brent g ~lo:0.0 ~hi:1.0));
    case "bisect raises without bracket" (fun () ->
        Alcotest.check_raises "no bracket" Numerics.Roots.No_bracket (fun () ->
            ignore (Numerics.Roots.bisect f ~lo:2.0 ~hi:3.0)));
    case "brent raises without bracket" (fun () ->
        Alcotest.check_raises "no bracket" Numerics.Roots.No_bracket (fun () ->
            ignore (Numerics.Roots.brent f ~lo:2.0 ~hi:3.0)));
    case "bisect returns exact endpoint root" (fun () ->
        check_close_abs "root at lo" 0.0 (Numerics.Roots.bisect (fun x -> x) ~lo:0.0 ~hi:1.0));
    case "golden_min quadratic" (fun () ->
        let x, v = Numerics.Roots.golden_min (fun x -> (x -. 1.5) ** 2.0) ~lo:0.0 ~hi:4.0 in
        check_close ~tol:1e-4 "argmin" 1.5 x;
        check_close_abs ~tol:1e-8 "min" 0.0 v);
    case "find_bracket locates sign change" (fun () ->
        match Numerics.Roots.find_bracket f ~lo:0.0 ~hi:2.0 ~n:8 with
        | Some (lo, hi) ->
          Alcotest.(check bool) "brackets" true (f lo *. f hi <= 0.0)
        | None -> Alcotest.fail "no bracket found");
    case "find_bracket returns None when none" (fun () ->
        Alcotest.(check bool) "none" true
          (Numerics.Roots.find_bracket f ~lo:2.0 ~hi:3.0 ~n:8 = None)) ]

(* --- Matrix / Lu --- *)

let matrix_tests =
  [ case "identity mat_vec" (fun () ->
        let m =
          Numerics.Matrix.of_arrays [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |]
        in
        let v = [| 1.; 2.; 3. |] in
        Array.iteri
          (fun i x -> check_close "id" v.(i) x)
          (Numerics.Matrix.mat_vec m v));
    case "mat_mul matches hand result" (fun () ->
        let a = Numerics.Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        let b = Numerics.Matrix.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
        let c = Numerics.Matrix.mat_mul a b in
        check_close "c00" 19.0 (Numerics.Matrix.get c 0 0);
        check_close "c01" 22.0 (Numerics.Matrix.get c 0 1);
        check_close "c10" 43.0 (Numerics.Matrix.get c 1 0);
        check_close "c11" 50.0 (Numerics.Matrix.get c 1 1));
    case "transpose" (fun () ->
        let a = Numerics.Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
        let t = Numerics.Matrix.transpose a in
        Alcotest.(check int) "rows" 3 (Numerics.Matrix.rows t);
        check_close "t21" 6.0 (Numerics.Matrix.get t 2 1));
    case "add_to stamps" (fun () ->
        let m = Numerics.Matrix.create ~rows:2 ~cols:2 in
        Numerics.Matrix.add_to m 0 0 1.5;
        Numerics.Matrix.add_to m 0 0 2.5;
        check_close "stamp" 4.0 (Numerics.Matrix.get m 0 0));
    case "lu solves a known system" (fun () ->
        let a = Numerics.Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
        let x = Numerics.Lu.solve a [| 5.; 10. |] in
        check_close "x0" 1.0 x.(0);
        check_close "x1" 3.0 x.(1));
    case "lu needs pivoting" (fun () ->
        (* Zero pivot in the (0,0) position forces a row swap. *)
        let a = Numerics.Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
        let x = Numerics.Lu.solve a [| 2.; 3. |] in
        check_close "x0" 3.0 x.(0);
        check_close "x1" 2.0 x.(1));
    case "lu raises on singular" (fun () ->
        let a = Numerics.Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        Alcotest.check_raises "singular" Numerics.Lu.Singular (fun () ->
            ignore (Numerics.Lu.solve a [| 1.; 1. |])));
    case "least squares recovers a line" (fun () ->
        (* Overdetermined y = 2x + 1 exactly. *)
        let a =
          Numerics.Matrix.of_arrays
            [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |]; [| 1.; 3. |] |]
        in
        let x = Numerics.Lu.solve_least_squares a [| 1.; 3.; 5.; 7. |] in
        check_close "intercept" 1.0 x.(0);
        check_close "slope" 2.0 x.(1)) ]

let lu_roundtrip_prop =
  QCheck.Test.make ~name:"lu solve roundtrip on random diagonally-dominant systems"
    ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, n) ->
      let rng = Numerics.Rng.create ~seed in
      let a = Numerics.Matrix.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        let mutable_sum = ref 0.0 in
        for j = 0 to n - 1 do
          if i <> j then begin
            let v = -1.0 +. (2.0 *. Numerics.Rng.uniform rng) in
            Numerics.Matrix.set a i j v;
            mutable_sum := !mutable_sum +. abs_float v
          end
        done;
        Numerics.Matrix.set a i i (!mutable_sum +. 1.0)
      done;
      let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
      let b = Numerics.Matrix.mat_vec a x_true in
      let x = Numerics.Lu.solve a b in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-8) x_true x)

(* --- Sparse --- *)

(* The stored entries of a compressed matrix, in [iter] order. *)
let entries a =
  let acc = ref [] in
  Numerics.Sparse.iter a (fun i j v -> acc := (i, j, v) :: !acc);
  List.rev !acc

(* ||b - A x||_2, accumulated over the stored entries. *)
let residual_norm a ~x ~b =
  let r = Array.copy b in
  Numerics.Sparse.iter a (fun i j v -> r.(i) <- r.(i) -. (v *. x.(j)));
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 r)

let sparse_tests =
  [ case "builder sums duplicates" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:2 in
        Numerics.Sparse.Builder.add b 0 0 1.0;
        Numerics.Sparse.Builder.add b 0 0 2.0;
        Numerics.Sparse.Builder.add b 1 1 1.0;
        let m = Numerics.Sparse.of_builder b in
        Alcotest.(check (list (triple int int (float 0.0)))) "entries"
          [ (0, 0, 3.0); (1, 1, 1.0) ] (entries m));
    case "explicit zeros dropped" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:2 in
        Numerics.Sparse.Builder.add b 0 1 1.0;
        Numerics.Sparse.Builder.add b 0 1 (-1.0);
        Numerics.Sparse.Builder.add b 1 0 2.0;
        let m = Numerics.Sparse.of_builder b in
        Alcotest.(check (list (triple int int (float 0.0)))) "entries"
          [ (1, 0, 2.0) ] (entries m)) ]

(* --- Newton --- *)

(* Newton steps through a dense LU of the analytic Jacobian. *)
let dense_step jacobian x neg_f =
  Numerics.Lu.solve (Numerics.Matrix.of_arrays (jacobian x)) neg_f

let newton_tests =
  [ case "solves a 2-D nonlinear system" (fun () ->
        (* x^2 + y^2 = 4, x = y -> x = y = sqrt 2 *)
        let residual v =
          [| (v.(0) *. v.(0)) +. (v.(1) *. v.(1)) -. 4.0; v.(0) -. v.(1) |]
        in
        let jacobian v = [| [| 2.0 *. v.(0); 2.0 *. v.(1) |]; [| 1.0; -1.0 |] |] in
        let r =
          Numerics.Newton.solve_custom ~residual ~solve_step:(dense_step jacobian)
            ~x0:[| 1.0; 1.2 |] ()
        in
        Alcotest.(check bool) "converged" true r.Numerics.Newton.converged;
        check_close ~tol:1e-6 "x" (sqrt 2.0) r.Numerics.Newton.x.(0);
        check_close ~tol:1e-6 "y" (sqrt 2.0) r.Numerics.Newton.x.(1));
    case "analytic jacobian path" (fun () ->
        let residual v = [| exp v.(0) -. 2.0 |] in
        let jacobian v = [| [| exp v.(0) |] |] in
        let r =
          Numerics.Newton.solve_custom ~residual ~solve_step:(dense_step jacobian)
            ~x0:[| 0.0 |] ()
        in
        Alcotest.(check bool) "converged" true r.Numerics.Newton.converged;
        check_close ~tol:1e-9 "ln2" (log 2.0) r.Numerics.Newton.x.(0));
    case "reports non-convergence" (fun () ->
        (* No root: x^2 + 1 = 0 over the reals.  The step guards the
           Jacobian's zero at the origin. *)
        let residual v = [| (v.(0) *. v.(0)) +. 1.0 |] in
        let jacobian v = [| [| 2.0 *. v.(0) +. 1e-3 |] |] in
        let r =
          Numerics.Newton.solve_custom ~max_iter:25 ~residual
            ~solve_step:(dense_step jacobian) ~x0:[| 0.5 |] ()
        in
        Alcotest.(check bool) "not converged" false r.Numerics.Newton.converged);
    case "max_step clamps the first move" (fun () ->
        let residual v = [| v.(0) -. 100.0 |] in
        let r =
          Numerics.Newton.solve_custom ~max_iter:5 ~max_step:1.0 ~residual
            ~solve_step:(dense_step (fun _ -> [| [| 1.0 |] |])) ~x0:[| 0.0 |] ()
        in
        (* After 5 unit steps the iterate cannot exceed 5. *)
        Alcotest.(check bool) "clamped" true (r.Numerics.Newton.x.(0) <= 5.0 +. 1e-9)) ]

(* --- Interp --- *)

let interp_tests =
  [ case "table1d interpolates linearly" (fun () ->
        let t = Numerics.Interp.Table1d.create [| 0.; 1.; 2. |] [| 0.; 10.; 40. |] in
        check_close "mid1" 5.0 (Numerics.Interp.Table1d.eval t 0.5);
        check_close "mid2" 25.0 (Numerics.Interp.Table1d.eval t 1.5));
    case "table1d clamps by default" (fun () ->
        let t = Numerics.Interp.Table1d.create [| 0.; 1. |] [| 1.; 3. |] in
        check_close "below" 1.0 (Numerics.Interp.Table1d.eval t (-5.0));
        check_close "above" 3.0 (Numerics.Interp.Table1d.eval t 9.0));
    case "table1d rejects non-increasing xs" (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (Numerics.Interp.Table1d.create [| 1.; 1. |] [| 0.; 0. |]); false
           with Invalid_argument _ -> true));
    case "of_fn samples the function" (fun () ->
        let t = Numerics.Interp.Table1d.of_fn ~lo:0.0 ~hi:1.0 ~n:11 (fun x -> x *. x) in
        check_close ~tol:1e-2 "quad" 0.25 (Numerics.Interp.Table1d.eval t 0.5));
    case "table2d bilinear" (fun () ->
        let t =
          Numerics.Interp.Table2d.create ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |]
            [| [| 0.; 1. |]; [| 2.; 3. |] |]
        in
        check_close "center" 1.5 (Numerics.Interp.Table2d.eval t ~x:0.5 ~y:0.5);
        check_close "corner" 3.0 (Numerics.Interp.Table2d.eval t ~x:1.0 ~y:1.0));
    case "pchip hits the knots" (fun () ->
        let xs = [| 0.; 1.; 2.; 3. |] and ys = [| 0.; 1.; 4.; 9. |] in
        let f = Numerics.Interp.pchip ~xs ~ys in
        Array.iteri (fun i x -> check_close "knot" ys.(i) (f x)) xs);
    case "pchip preserves monotonicity" (fun () ->
        let xs = [| 0.; 1.; 2.; 3.; 4. |] in
        let ys = [| 0.; 0.1; 0.5; 2.0; 2.1 |] in
        let f = Numerics.Interp.pchip ~xs ~ys in
        let samples = Array.init 101 (fun i -> f (0.04 *. float_of_int i)) in
        check_increasing "monotone" samples) ]

(* --- Fit --- *)

let fit_tests =
  [ case "linear fit exact" (fun () ->
        let r = Numerics.Fit.linear ~xs:[| 0.; 1.; 2. |] ~ys:[| 1.; 3.; 5. |] in
        check_close "slope" 2.0 r.Numerics.Fit.slope;
        check_close "intercept" 1.0 r.Numerics.Fit.intercept;
        check_close "r2" 1.0 r.Numerics.Fit.r_squared);
    case "power law recovers synthetic parameters" (fun () ->
        let a = 1.3 and b = 9.5e-5 and vt = 0.335 in
        let vs = Array.init 10 (fun i -> 0.5 +. (0.03 *. float_of_int i)) in
        let is_ = Array.map (fun v -> b *. ((v -. vt) ** a)) vs in
        let fit = Numerics.Fit.power_law ~vt_lo:0.1 ~vt_hi:0.45 vs is_ in
        check_close ~tol:1e-3 "a" a fit.Numerics.Fit.a;
        check_close ~tol:1e-2 "b" b fit.Numerics.Fit.b;
        check_close ~tol:1e-2 "vt" vt fit.Numerics.Fit.vt;
        check_close_abs ~tol:1e-4 "rms" 0.0 fit.Numerics.Fit.rms_error);
    case "power law with fixed vt" (fun () ->
        (* A 1 nV search window pins the threshold. *)
        let vs = [| 0.5; 0.6; 0.7 |] in
        let is_ = Array.map (fun v -> 2.0 *. ((v -. 0.3) ** 1.5)) vs in
        let fit = Numerics.Fit.power_law ~vt_lo:0.3 ~vt_hi:(0.3 +. 1e-9) vs is_ in
        check_close ~tol:1e-6 "a" 1.5 fit.Numerics.Fit.a;
        check_close ~tol:1e-6 "b" 2.0 fit.Numerics.Fit.b);
    case "fixed vt rejects samples below threshold" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Numerics.Fit.power_law ~vt_lo:0.5 ~vt_hi:(0.5 +. 1e-9)
                  [| 0.4; 0.6 |] [| 1.0; 2.0 |]);
             false
           with Invalid_argument _ -> true)) ]

let sparse_lu_tests =
  [ case "matches dense LU on a small system" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:4 in
        let dense = Numerics.Matrix.create ~rows:4 ~cols:4 in
        List.iter
          (fun (i, j, v) ->
            Numerics.Sparse.Builder.add b i j v;
            Numerics.Matrix.add_to dense i j v)
          [ (0, 0, 4.0); (0, 1, -1.0); (1, 0, -1.0); (1, 1, 4.0); (1, 2, -1.0);
            (2, 1, -1.0); (2, 2, 4.0); (2, 3, -1.0); (3, 2, -1.0); (3, 3, 4.0) ];
        let a = Numerics.Sparse.of_builder b in
        let rhs = [| 1.0; 2.0; 3.0; 4.0 |] in
        let xs = Numerics.Sparse_lu.solve a rhs in
        let xd = Numerics.Lu.solve dense rhs in
        Array.iteri (fun i v -> check_close ~tol:1e-10 "x" xd.(i) v) xs);
    case "needs pivoting" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:2 in
        Numerics.Sparse.Builder.add b 0 1 1.0;
        Numerics.Sparse.Builder.add b 1 0 1.0;
        let a = Numerics.Sparse.of_builder b in
        let x = Numerics.Sparse_lu.solve a [| 2.0; 3.0 |] in
        check_close "x0" 3.0 x.(0);
        check_close "x1" 2.0 x.(1));
    case "raises on singular input" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:2 in
        Numerics.Sparse.Builder.add b 0 0 1.0;
        Numerics.Sparse.Builder.add b 1 0 2.0;
        let a = Numerics.Sparse.of_builder b in
        Alcotest.check_raises "singular" Numerics.Lu.Singular (fun () ->
            ignore (Numerics.Sparse_lu.solve a [| 1.0; 1.0 |])));
    case "1000-node ladder solves to machine precision" (fun () ->
        let n = 1000 in
        let b = Numerics.Sparse.Builder.create ~n in
        for i = 0 to n - 1 do
          Numerics.Sparse.Builder.add b i i 2.0;
          if i > 0 then Numerics.Sparse.Builder.add b i (i - 1) (-1.0);
          if i < n - 1 then Numerics.Sparse.Builder.add b i (i + 1) (-1.0)
        done;
        let a = Numerics.Sparse.of_builder b in
        let rhs = Array.make n 1.0 in
        let x = Numerics.Sparse_lu.solve a rhs in
        check_close_abs ~tol:1e-8 "resid" 0.0 (residual_norm a ~x ~b:rhs));
    case "iter walks every stored entry" (fun () ->
        let b = Numerics.Sparse.Builder.create ~n:3 in
        Numerics.Sparse.Builder.add b 0 2 5.0;
        Numerics.Sparse.Builder.add b 2 0 7.0;
        let a = Numerics.Sparse.of_builder b in
        let seen = ref [] in
        Numerics.Sparse.iter a (fun i j v -> seen := (i, j, v) :: !seen);
        Alcotest.(check int) "two entries" 2 (List.length !seen)) ]

let sparse_lu_random_prop =
  QCheck.Test.make ~name:"sparse LU matches dense LU on random sparse systems"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 3 25))
    (fun (seed, n) ->
      let rng = Numerics.Rng.create ~seed in
      let b = Numerics.Sparse.Builder.create ~n in
      let dense = Numerics.Matrix.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        let sum = ref 0.0 in
        for _ = 1 to 3 do
          let j = Numerics.Rng.int_below rng n in
          if j <> i then begin
            let v = -1.0 +. (2.0 *. Numerics.Rng.uniform rng) in
            Numerics.Sparse.Builder.add b i j v;
            Numerics.Matrix.add_to dense i j v;
            sum := !sum +. abs_float v
          end
        done;
        Numerics.Sparse.Builder.add b i i (!sum +. 1.0);
        Numerics.Matrix.add_to dense i i (!sum +. 1.0)
      done;
      let a = Numerics.Sparse.of_builder b in
      let rhs = Array.init n (fun i -> float_of_int ((i mod 5) - 2)) in
      let xs = Numerics.Sparse_lu.solve a rhs in
      let xd = Numerics.Lu.solve dense rhs in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-8) xs xd)

let () =
  Alcotest.run "numerics"
    [ ("rng", rng_tests);
      ("stats", stats_tests);
      ("roots", roots_tests);
      ("matrix_lu", matrix_tests @ [ QCheck_alcotest.to_alcotest lu_roundtrip_prop ]);
      ("sparse", sparse_tests);
      ("sparse_lu", sparse_lu_tests @ [ QCheck_alcotest.to_alcotest sparse_lu_random_prop ]);
      ("newton", newton_tests);
      ("interp", interp_tests);
      ("fit", fit_tests) ]
