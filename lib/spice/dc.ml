type solution = {
  voltages : float array;
  source_currents : float array;
  converged : bool;
  iterations : int;
}

let gmin = 1e-12

(* The unknown vector is [v_1 .. v_{n-1}; i_src_1 .. i_src_m].
   [companions] replaces capacitors by (conductance, equivalent history
   voltage) pairs for transient steps; in pure DC capacitors are open. *)
type companion = { g_eq : float; v_hist : float }

(* A netlist lowered once for many solves.  Elements keep netlist order
   (so every KCL row and Jacobian entry sums its terms in the order the
   netlist lists them); [index] numbers an element among those of its
   kind.  Each voltage source's waveform sits in a slot of [waves] that a
   sweep re-levels.  The residual pass records every FET's current in
   [fet_current]: the Jacobian, always assembled at the x of the latest
   residual (see {!Numerics.Newton.solve_custom}), reuses it as the base
   point of its finite differences.  The dense Jacobian and LU buffers are
   allocated on the first dense step, never for the sparse path. *)
type element =
  | Resistor of { plus : int; minus : int; ohms : float }
  | Capacitor of { plus : int; minus : int; index : int }
  | Vsource of { plus : int; minus : int; index : int }
  | Isource of { from_node : int; to_node : int; amps : float }
  | Fet of {
      params : Finfet.Device.params;
      nfin : int;
      gate : int;
      drain : int;
      source : int;
      index : int;
    }

type dense = {
  jac : Numerics.Matrix.t;
  lu : Numerics.Matrix.t;
  perm : int array;
  add : int -> int -> float -> unit;  (* stamps into [jac] *)
}

type compiled = {
  nodes : int;  (* including ground *)
  dim : int;
  elements : element array;
  waves : Netlist.waveform array;
  targets : float array;  (* source_scale * waves.(k) at the solve's time *)
  mutable source_scale : float;
  fet_current : float array;
  res : float array;
  dense : dense Lazy.t;
}

let compile netlist =
  (match Netlist.validate netlist with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Dc.operating_point: " ^ msg));
  let nodes = Netlist.num_nodes netlist in
  let n_vsrc = Netlist.vsource_count netlist in
  let dim = nodes - 1 + n_vsrc in
  let waves = Array.make n_vsrc (Netlist.Const 0.0) in
  let caps = ref 0 and srcs = ref 0 and fets = ref 0 in
  let next counter =
    let k = !counter in
    incr counter;
    k
  in
  let lower = function
    | Netlist.Resistor { plus; minus; ohms } -> Resistor { plus; minus; ohms }
    | Netlist.Capacitor { plus; minus; _ } -> Capacitor { plus; minus; index = next caps }
    | Netlist.Vsource { plus; minus; volts } ->
      let index = next srcs in
      waves.(index) <- volts;
      Vsource { plus; minus; index }
    | Netlist.Isource { from_node; to_node; amps } -> Isource { from_node; to_node; amps }
    | Netlist.Fet { params; nfin; gate; drain; source } ->
      Fet { params; nfin; gate; drain; source; index = next fets }
  in
  let elements = Array.map lower (Array.of_list (Netlist.elements netlist)) in
  let dense =
    lazy
      (let jac = Numerics.Matrix.create ~rows:dim ~cols:dim in
       let a = Numerics.Matrix.storage jac in
       { jac;
         lu = Numerics.Matrix.create ~rows:dim ~cols:dim;
         perm = Array.make dim 0;
         add = (fun i j g -> a.((i * dim) + j) <- a.((i * dim) + j) +. g) })
  in
  { nodes; dim; elements; waves;
    targets = Array.make n_vsrc 0.0;
    source_scale = 1.0;
    fet_current = Array.make !fets 0.0;
    res = Array.make dim 0.0;
    dense }

let node_v x node = if node = 0 then 0.0 else x.(node - 1)
let kcl res node amount = if node <> 0 then res.(node - 1) <- res.(node - 1) +. amount

(* KCL sums per node, then each source's constraint, into [c.res]. *)
let residual c ~companions x =
  let res = c.res in
  Array.fill res 0 c.dim 0.0;
  (* gmin keeps floating nodes well-posed *)
  for node = 1 to c.nodes - 1 do
    kcl res node (gmin *. x.(node - 1))
  done;
  let vrow = c.nodes - 1 in
  for e = 0 to Array.length c.elements - 1 do
    match c.elements.(e) with
    | Resistor { plus; minus; ohms } ->
      let i = (node_v x plus -. node_v x minus) /. ohms in
      kcl res plus i;
      kcl res minus (-.i)
    | Capacitor { plus; minus; index } ->
      (match companions with
       | None -> ()
       | Some comps ->
         let { g_eq; v_hist } = comps.(index) in
         let i = g_eq *. (node_v x plus -. node_v x minus -. v_hist) in
         kcl res plus i;
         kcl res minus (-.i))
    | Vsource { plus; minus; index } ->
      let i = x.(vrow + index) in
      kcl res plus i;
      kcl res minus (-.i);
      res.(vrow + index) <- node_v x plus -. node_v x minus -. c.targets.(index)
    | Isource { from_node; to_node; amps } ->
      let i = c.source_scale *. amps in
      kcl res from_node i;
      kcl res to_node (-.i)
    | Fet { params; nfin; gate; drain; source; index } ->
      let i =
        Finfet.Device.drain_source_current params ~nfin ~vg:(node_v x gate)
          ~vd:(node_v x drain) ~vs:(node_v x source)
      in
      c.fet_current.(index) <- i;
      kcl res drain i;
      kcl res source (-.i)
  done;
  res

(* The Jacobian at [x] (which must be the latest residual's x), stamped
   through [add row col g]: into the dense buffer or a sparse builder.
   Column [node - 1] is node's voltage; ground has none. *)
let stamp_kcl add node col g = if node <> 0 && col >= 0 then add (node - 1) col g

let stamp_two_terminal add plus minus g =
  if plus <> 0 then begin
    stamp_kcl add plus (plus - 1) g;
    if minus <> 0 then stamp_kcl add plus (minus - 1) (-.g)
  end;
  if minus <> 0 then begin
    stamp_kcl add minus (minus - 1) g;
    if plus <> 0 then stamp_kcl add minus (plus - 1) (-.g)
  end

let stamp c ~companions ~add x =
  for node = 1 to c.nodes - 1 do
    stamp_kcl add node (node - 1) gmin
  done;
  for e = 0 to Array.length c.elements - 1 do
    match c.elements.(e) with
    | Resistor { plus; minus; ohms } -> stamp_two_terminal add plus minus (1.0 /. ohms)
    | Capacitor { plus; minus; index } ->
      (match companions with
       | None -> ()
       | Some comps -> stamp_two_terminal add plus minus comps.(index).g_eq)
    | Vsource { plus; minus; index } ->
      let row = c.nodes - 1 + index in
      (* Branch current enters the KCL rows... *)
      if plus <> 0 then add (plus - 1) row 1.0;
      if minus <> 0 then add (minus - 1) row (-1.0);
      (* ...and the source's constraint row pins the terminal difference. *)
      if plus <> 0 then add row (plus - 1) 1.0;
      if minus <> 0 then add row (minus - 1) (-1.0)
    | Isource _ -> ()
    | Fet { params; nfin; gate; drain; source; index } ->
      (* Local finite-difference transconductances around the current
         the residual pass just computed. *)
      let h = 1e-7 in
      let vg = node_v x gate and vd = node_v x drain and vs = node_v x source in
      let i0 = c.fet_current.(index) in
      let gm =
        (Finfet.Device.drain_source_current params ~nfin ~vg:(vg +. h) ~vd ~vs -. i0) /. h
      in
      let gds =
        (Finfet.Device.drain_source_current params ~nfin ~vg ~vd:(vd +. h) ~vs -. i0) /. h
      in
      let gs =
        (Finfet.Device.drain_source_current params ~nfin ~vg ~vd ~vs:(vs +. h) -. i0) /. h
      in
      if drain <> 0 then begin
        stamp_kcl add drain (gate - 1) gm;
        stamp_kcl add drain (drain - 1) gds;
        stamp_kcl add drain (source - 1) gs
      end;
      if source <> 0 then begin
        stamp_kcl add source (gate - 1) (-.gm);
        stamp_kcl add source (drain - 1) (-.gds);
        stamp_kcl add source (source - 1) (-.gs)
      end
  done

(* On a singular system, retry with a growing diagonal conductance
   (gmin stepping); give up with a zero step past 1 S. *)
let regularized ~dim solve =
  let rec attempt extra =
    match solve extra with
    | dx -> dx
    | exception Numerics.Lu.Singular ->
      if extra > 1.0 then Array.make dim 0.0
      else attempt (if extra = 0.0 then 1e-12 else extra *. 100.0)
  in
  attempt 0.0

let dense_step c ~companions x neg_f =
  let d = Lazy.force c.dense in
  Numerics.Matrix.fill d.jac 0.0;
  stamp c ~companions ~add:d.add x;
  regularized ~dim:c.dim (fun extra ->
      Numerics.Matrix.blit ~src:d.jac ~dst:d.lu;
      if extra > 0.0 then
        for i = 0 to c.dim - 1 do
          Numerics.Matrix.add_to d.lu i i extra
        done;
      Numerics.Lu.solve_factored (Numerics.Lu.factorize_in_place d.lu ~perm:d.perm) neg_f)

let sparse_jacobian c ~companions x =
  let builder = Numerics.Sparse.Builder.create ~n:c.dim in
  stamp c ~companions ~add:(Numerics.Sparse.Builder.add builder) x;
  Numerics.Sparse.of_builder builder

let sparse_step c ~companions x neg_f =
  let base = sparse_jacobian c ~companions x in
  regularized ~dim:c.dim (fun extra ->
      let jac =
        if extra = 0.0 then base
        else begin
          let b = Numerics.Sparse.Builder.create ~n:c.dim in
          Numerics.Sparse.iter base (fun i j v -> Numerics.Sparse.Builder.add b i j v);
          for i = 0 to c.dim - 1 do
            Numerics.Sparse.Builder.add b i i extra
          done;
          Numerics.Sparse.of_builder b
        end
      in
      Numerics.Sparse_lu.solve jac neg_f)

let sparse_dimension_threshold = 80

(* Newton's iteration limit per attempt: the direct attempt's default
   and every source-stepping step's. *)
let max_iterations = 150

let solve_scaled ?min_iter c ~at_time ~source_scale ~companions ~max_iter ~x0 =
  c.source_scale <- source_scale;
  Array.iteri
    (fun k w -> c.targets.(k) <- source_scale *. Netlist.waveform_at w at_time)
    c.waves;
  let solve_step =
    if c.dim >= sparse_dimension_threshold then sparse_step c ~companions
    else dense_step c ~companions
  in
  Numerics.Newton.solve_custom ~tol:1e-12 ~max_iter ?min_iter ~max_step:0.15
    ~residual:(residual c ~companions) ~solve_step ~x0 ()

let unpack c (result : Numerics.Newton.result) ~iterations =
  let voltages = Array.make c.nodes 0.0 in
  Array.blit result.Numerics.Newton.x 0 voltages 1 (c.nodes - 1);
  let source_currents =
    Array.sub result.Numerics.Newton.x (c.nodes - 1) (Array.length c.waves)
  in
  { voltages; source_currents;
    converged = result.Numerics.Newton.converged;
    iterations }

let c_solves = Runtime.Telemetry.counter "dc.solves"
let c_iterations = Runtime.Telemetry.counter "dc.newton_iterations"
let c_direct_failures = Runtime.Telemetry.counter "dc.direct_failures"
let c_unconverged = Runtime.Telemetry.counter "dc.unconverged"

let counted s =
  Runtime.Telemetry.incr c_solves;
  Runtime.Telemetry.add c_iterations s.iterations;
  if not s.converged then Runtime.Telemetry.incr c_unconverged;
  s

let solve ?x0 ?(at_time = 0.0) ?companions ?(direct_iterations = max_iterations)
    ?min_iterations c =
  let start = match x0 with Some v -> v | None -> Array.make c.dim 0.0 in
  let direct =
    solve_scaled ?min_iter:min_iterations c ~at_time ~source_scale:1.0 ~companions
      ~max_iter:direct_iterations ~x0:start
  in
  if direct.Numerics.Newton.converged then
    counted (unpack c direct ~iterations:direct.Numerics.Newton.iterations)
  else begin
    Runtime.Telemetry.incr c_direct_failures;
    (* Source stepping: ramp every source from zero, warm-starting. *)
    let scales = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
    let x = ref (Array.make c.dim 0.0) in
    let total = ref direct.Numerics.Newton.iterations in
    let last = ref direct in
    List.iter
      (fun scale ->
        let r =
          solve_scaled c ~at_time ~source_scale:scale ~companions ~max_iter:max_iterations
            ~x0:!x
        in
        total := !total + r.Numerics.Newton.iterations;
        x := r.Numerics.Newton.x;
        last := r)
      scales;
    counted (unpack c !last ~iterations:!total)
  end

let operating_point ?x0 ?direct_iterations ?min_iterations netlist =
  solve ?x0 ?direct_iterations ?min_iterations (compile netlist)

let solution_vector s =
  Array.append (Array.sub s.voltages 1 (Array.length s.voltages - 1)) s.source_currents

let small_signal_conductance netlist s =
  let c = compile netlist in
  let x = solution_vector s in
  ignore (residual c ~companions:None x);
  sparse_jacobian c ~companions:None x

let sweep netlist ~source ~points =
  let c = compile netlist in
  if source < 0 || source >= Array.length c.waves then
    invalid_arg "Dc.sweep: no such voltage source";
  let prev = ref None in
  Array.map
    (fun p ->
      c.waves.(source) <- Netlist.Const p;
      let s = solve ?x0:!prev c in
      prev := Some (solution_vector s);
      s)
    points

let node_voltage s node = s.voltages.(node)
