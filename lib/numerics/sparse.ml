module Builder = struct
  type t = {
    n : int;
    mutable is : int list;
    mutable js : int list;
    mutable xs : float list;
    mutable count : int;
  }

  let create ~n =
    assert (n > 0);
    { n; is = []; js = []; xs = []; count = 0 }

  let add b i j x =
    assert (i >= 0 && i < b.n && j >= 0 && j < b.n);
    if x <> 0.0 then begin
      b.is <- i :: b.is;
      b.js <- j :: b.js;
      b.xs <- x :: b.xs;
      b.count <- b.count + 1
    end
end

type t = {
  n : int;
  row_ptr : int array; (* length n+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array;
}

let of_builder (b : Builder.t) =
  let n = b.Builder.n in
  let is = Array.of_list b.Builder.is in
  let js = Array.of_list b.Builder.js in
  let xs = Array.of_list b.Builder.xs in
  let m = Array.length is in
  (* Sort triplets by (row, col) using an index permutation. *)
  let order = Array.init m (fun k -> k) in
  Array.sort
    (fun a b ->
      let c = compare is.(a) is.(b) in
      if c <> 0 then c else compare js.(a) js.(b))
    order;
  (* Merge duplicates. *)
  let merged_i = ref [] and merged_j = ref [] and merged_x = ref [] in
  let count = ref 0 in
  let k = ref 0 in
  while !k < m do
    let i = is.(order.(!k)) and j = js.(order.(!k)) in
    let acc = ref 0.0 in
    while !k < m && is.(order.(!k)) = i && js.(order.(!k)) = j do
      acc := !acc +. xs.(order.(!k));
      incr k
    done;
    if !acc <> 0.0 then begin
      merged_i := i :: !merged_i;
      merged_j := j :: !merged_j;
      merged_x := !acc :: !merged_x;
      incr count
    end
  done;
  let nnz = !count in
  let mi = Array.of_list (List.rev !merged_i) in
  let mj = Array.of_list (List.rev !merged_j) in
  let mx = Array.of_list (List.rev !merged_x) in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iter (fun i -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1) mi;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  let cursor = Array.copy row_ptr in
  for k = 0 to nnz - 1 do
    let i = mi.(k) in
    col_idx.(cursor.(i)) <- mj.(k);
    values.(cursor.(i)) <- mx.(k);
    cursor.(i) <- cursor.(i) + 1
  done;
  { n; row_ptr; col_idx; values }

let dim a = a.n

let iter a f =
  for i = 0 to a.n - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      f i a.col_idx.(k) a.values.(k)
    done
  done
