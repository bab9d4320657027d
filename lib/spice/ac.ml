type point = {
  frequency : float;
  magnitude : float;
  phase : float;
}

let dimension netlist =
  Netlist.num_nodes netlist - 1 + Netlist.vsource_count netlist

(* Capacitor incidence scaled by C (the imaginary stamps per rad/s). *)
let capacitance_entries netlist =
  let entries = ref [] in
  let stamp i j v = if i > 0 && j > 0 then entries := (i - 1, j - 1, v) :: !entries in
  List.iter
    (function
      | Netlist.Capacitor { plus; minus; farads } ->
        stamp plus plus farads;
        stamp minus minus farads;
        stamp plus minus (-.farads);
        stamp minus plus (-.farads)
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _
      | Netlist.Fet _ -> ())
    (Netlist.elements netlist);
  !entries

let stimulus_vector netlist ~source_index =
  let n_src = Netlist.vsource_count netlist in
  if source_index < 0 || source_index >= n_src then
    invalid_arg "Ac: source index out of range";
  let dim = dimension netlist in
  let b = Array.make dim 0.0 in
  (* The constraint row of source k sits at (num_nodes - 1) + k. *)
  b.(Netlist.num_nodes netlist - 1 + source_index) <- 1.0;
  b

let check_output netlist output =
  if output <= 0 || output >= Netlist.num_nodes netlist then
    invalid_arg "Ac: output must be a non-ground node"

(* Solve (G + j w C) x = b as [[G, -wC]; [wC, G]] [xr; xi] = [b; 0]. *)
let solve_complex netlist ~source_index ~omega =
  let dim = dimension netlist in
  let op = Dc.operating_point netlist in
  let g = Dc.small_signal_conductance netlist op in
  let caps = capacitance_entries netlist in
  let builder = Numerics.Sparse.Builder.create ~n:(2 * dim) in
  Numerics.Sparse.iter g (fun i j v ->
      Numerics.Sparse.Builder.add builder i j v;
      Numerics.Sparse.Builder.add builder (dim + i) (dim + j) v);
  List.iter
    (fun (i, j, c) ->
      let wc = omega *. c in
      if wc <> 0.0 then begin
        Numerics.Sparse.Builder.add builder i (dim + j) (-.wc);
        Numerics.Sparse.Builder.add builder (dim + i) j wc
      end)
    caps;
  let b = stimulus_vector netlist ~source_index in
  let rhs = Array.append b (Array.make dim 0.0) in
  let x = Numerics.Sparse_lu.solve (Numerics.Sparse.of_builder builder) rhs in
  (Array.sub x 0 dim, Array.sub x dim dim)

let at_frequency netlist ~source_index ~output ~frequency =
  check_output netlist output;
  let omega = 2.0 *. Float.pi *. frequency in
  let re, im = solve_complex netlist ~source_index ~omega in
  let vr = re.(output - 1) and vi = im.(output - 1) in
  { frequency;
    magnitude = sqrt ((vr *. vr) +. (vi *. vi));
    phase = atan2 vi vr }
