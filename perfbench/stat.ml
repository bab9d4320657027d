(* Order statistics behind every reported figure. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it. *)
let nearest_rank s p =
  let n = Array.length s in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (k - 1)))

(* A tail percentile is reported only when at least ten samples lie
   beyond it, so p90 needs 100 samples.  A p99 would need 1000, more
   than the one-shot workloads complete in a run. *)
let tail_pct = 90.0
let min_tail_samples = 100

let p90 a =
  let n = Array.length a in
  if n < min_tail_samples then
    Error
      (Printf.sprintf "p90 needs at least %d samples, the run has %d"
         min_tail_samples n)
  else Ok (nearest_rank (sorted a) tail_pct)

(* A growable float array, so a 400k-request run records its latencies
   without a list per sample. *)
module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end
