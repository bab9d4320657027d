let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let mu_minus_k_sigma xs ~k = mean xs -. (k *. stddev xs)

(* Abramowitz & Stegun 7.1.26. *)
let erf x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = abs_float x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
        +. (t *. (-0.284496736
                  +. (t *. (1.421413741
                            +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1.0 -. (poly *. exp (-.x *. x)))

let normal_cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  assert (sigma > 0.0);
  0.5 *. (1.0 +. erf ((x -. mu) /. (sigma *. sqrt 2.0)))

(* Stirling-series log-gamma (Lanczos would also do; this is plenty for
   binomials over integer arguments). *)
let rec log_gamma x =
  assert (x > 0.0);
  if x < 7.0 then log_gamma (x +. 1.0) -. log x
  else begin
    let inv = 1.0 /. x in
    let inv2 = inv *. inv in
    ((x -. 0.5) *. log x) -. x
    +. (0.5 *. log (2.0 *. Float.pi))
    +. (inv /. 12.0)
    -. (inv *. inv2 /. 360.0)
    +. (inv *. inv2 *. inv2 /. 1260.0)
  end

let log_choose n k =
  assert (n >= 0 && k >= 0 && k <= n);
  if k = 0 || k = n then 0.0
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))

let binomial_cdf ~n ~p k =
  assert (n >= 0 && p >= 0.0 && p <= 1.0);
  if k < 0 then 0.0
  else if k >= n then 1.0
  else if p = 0.0 then 1.0
  else if p = 1.0 then 0.0
  else begin
    let log_p = log p and log_q = log (1.0 -. p) in
    let acc = ref 0.0 in
    for i = 0 to k do
      let term =
        log_choose n i
        +. (float_of_int i *. log_p)
        +. (float_of_int (n - i) *. log_q)
      in
      acc := !acc +. exp term
    done;
    min 1.0 !acc
  end
