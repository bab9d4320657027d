(* Row-wise sparse Gaussian elimination with partial pivoting.

   Working representation: each active row is a hashtable column -> value
   (mutation-heavy elimination wants O(1) access); finished U rows and the
   L multipliers are frozen into sorted arrays.  Multipliers are recorded
   against row identities, so pivot swaps in later steps need no fix-up. *)

type factors = {
  n : int;
  u_cols : int array array;   (* per step k: U columns >= k, sorted, diag first *)
  u_vals : float array array;
  l_rows : int array array;   (* per step k: the row ids that were updated *)
  l_vals : float array array;
  perm : int array;           (* perm.(k) = row id chosen as pivot at step k *)
}

let pivot_threshold = 1e-14

let factorize (a : Sparse.t) =
  let n = Sparse.dim a in
  let rows = Array.init n (fun _ -> Hashtbl.create 8) in
  Sparse.iter a (fun i j v -> if v <> 0.0 then Hashtbl.replace rows.(i) j v);
  let eliminated = Array.make n false in
  let perm = Array.make n 0 in
  let u_cols = Array.make n [||] in
  let u_vals = Array.make n [||] in
  let l_rows = Array.make n [||] in
  let l_vals = Array.make n [||] in
  for k = 0 to n - 1 do
    (* Pivot: the remaining row with the largest |entry| in column k. *)
    let best_row = ref (-1) in
    let best_mag = ref pivot_threshold in
    for r = 0 to n - 1 do
      if not eliminated.(r) then
        match Hashtbl.find_opt rows.(r) k with
        | Some v when abs_float v > !best_mag ->
          best_mag := abs_float v;
          best_row := r
        | Some _ | None -> ()
    done;
    if !best_row < 0 then raise Lu.Singular;
    let pr = !best_row in
    eliminated.(pr) <- true;
    perm.(k) <- pr;
    let pivot_row = rows.(pr) in
    let pivot = Hashtbl.find pivot_row k in
    (* Freeze the U row (columns >= k; earlier columns were eliminated). *)
    let entries =
      List.sort
        (fun (j1, _) (j2, _) -> compare j1 j2)
        (Hashtbl.fold (fun j v acc -> (j, v) :: acc) pivot_row [])
    in
    u_cols.(k) <- Array.of_list (List.map fst entries);
    u_vals.(k) <- Array.of_list (List.map snd entries);
    (* Eliminate column k from every remaining row. *)
    let multipliers = ref [] in
    for r = 0 to n - 1 do
      if not eliminated.(r) then
        match Hashtbl.find_opt rows.(r) k with
        | None -> ()
        | Some v ->
          let m = v /. pivot in
          Hashtbl.remove rows.(r) k;
          if m <> 0.0 then begin
            multipliers := (r, m) :: !multipliers;
            List.iter
              (fun (j, uv) ->
                if j > k then begin
                  let updated =
                    (match Hashtbl.find_opt rows.(r) j with
                     | Some x -> x
                     | None -> 0.0)
                    -. (m *. uv)
                  in
                  if updated = 0.0 then Hashtbl.remove rows.(r) j
                  else Hashtbl.replace rows.(r) j updated
                end)
              entries
          end
    done;
    let ms = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) !multipliers in
    l_rows.(k) <- Array.of_list (List.map fst ms);
    l_vals.(k) <- Array.of_list (List.map snd ms)
  done;
  { n; u_cols; u_vals; l_rows; l_vals; perm }

let solve_factored f b =
  let n = f.n in
  assert (Array.length b = n);
  (* Forward elimination replayed on a row-id-indexed copy of b. *)
  let y = Array.copy b in
  for k = 0 to n - 1 do
    let pivot_value = y.(f.perm.(k)) in
    let rowsk = f.l_rows.(k) and valsk = f.l_vals.(k) in
    for idx = 0 to Array.length rowsk - 1 do
      y.(rowsk.(idx)) <- y.(rowsk.(idx)) -. (valsk.(idx) *. pivot_value)
    done
  done;
  (* Back substitution over the pivot order. *)
  let x = Array.make n 0.0 in
  for k = n - 1 downto 0 do
    let cols = f.u_cols.(k) and vals = f.u_vals.(k) in
    let acc = ref y.(f.perm.(k)) in
    for idx = 1 to Array.length cols - 1 do
      acc := !acc -. (vals.(idx) *. x.(cols.(idx)))
    done;
    x.(k) <- !acc /. vals.(0)
  done;
  x

let solve a b = solve_factored (factorize a) b
