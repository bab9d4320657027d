let delay (c : Exhaustive.candidate) = c.Exhaustive.metrics.Array_model.Array_eval.d_array
let energy (c : Exhaustive.candidate) = c.Exhaustive.metrics.Array_model.Array_eval.e_total

let objectives c = [| delay c; energy c |]

let front candidates =
  (* Sort by delay, then sweep keeping the running energy minimum: a point
     enters the front iff it improves energy over everything faster. *)
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (delay a) (delay b) in
        if c <> 0 then c else compare (energy a) (energy b))
      candidates
  in
  let rec sweep best_energy acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if energy c < best_energy then sweep (energy c) (c :: acc) rest
      else sweep best_energy acc rest
  in
  sweep infinity [] sorted

let knee candidates =
  match front candidates with
  | [] -> None
  | front_members ->
    let delays = List.map delay front_members in
    let energies = List.map energy front_members in
    let dmin = List.fold_left min infinity delays in
    let dmax = List.fold_left max neg_infinity delays in
    let emin = List.fold_left min infinity energies in
    let emax = List.fold_left max neg_infinity energies in
    let span x lo hi = if hi > lo then (x -. lo) /. (hi -. lo) else 0.0 in
    let dist c =
      let dn = span (delay c) dmin dmax in
      let en = span (energy c) emin emax in
      sqrt ((dn *. dn) +. (en *. en))
    in
    let best =
      List.fold_left
        (fun (bc, bd) c ->
          let d = dist c in
          if d < bd then (c, d) else (bc, bd))
        (List.hd front_members, dist (List.hd front_members))
        (List.tl front_members)
    in
    Some (fst best)
