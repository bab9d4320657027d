(* Reference implementations of the SPICE-level kernels as they stood
   before the compiled DC kernel, the tabulated lobe brackets, the
   one-sweep symmetric butterfly, the early-stopped write transient and
   the on-demand write-delay table: list-walking MNA assembly rebuilt on
   every Newton iteration, a Newton loop that re-evaluates the residual
   at the top of each iteration, a copying dense LU, a per-offset
   bracket scan in the butterfly lobe, a butterfly that sweeps both
   halves and extracts both lobes, a write transient that runs its whole
   window, and an eagerly filled write-delay LUT.  The library versions
   must agree with these bit for bit; the property tests in
   test_spice.ml, test_sram_cell.ml and test_array_model.ml check
   that. *)

module Lu = struct
  let pivot_threshold = 1e-14

  let factorize m =
    let n = Numerics.Matrix.rows m in
    let lu = Numerics.Matrix.copy m in
    let get = Numerics.Matrix.get lu and set = Numerics.Matrix.set lu in
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      let pivot_val = ref (abs_float (get k k)) in
      for i = k + 1 to n - 1 do
        let v = abs_float (get i k) in
        if v > !pivot_val then begin
          pivot_val := v;
          pivot_row := i
        end
      done;
      if !pivot_val < pivot_threshold then raise Numerics.Lu.Singular;
      if !pivot_row <> k then begin
        for j = 0 to n - 1 do
          let tmp = get k j in
          set k j (get !pivot_row j);
          set !pivot_row j tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(!pivot_row);
        perm.(!pivot_row) <- tmp
      end;
      let pivot = get k k in
      for i = k + 1 to n - 1 do
        let factor = get i k /. pivot in
        set i k factor;
        if factor <> 0.0 then
          for j = k + 1 to n - 1 do
            Numerics.Matrix.add_to lu i j (-.factor *. get k j)
          done
      done
    done;
    (lu, perm)

  let solve m b =
    let lu, perm = factorize m in
    let n = Numerics.Matrix.rows lu in
    let get = Numerics.Matrix.get lu in
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (get i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get i j *. x.(j))
      done;
      x.(i) <- !acc /. get i i
    done;
    x
end

module Newton = struct
  let norm_inf v = Array.fold_left (fun acc x -> max acc (abs_float x)) 0.0 v

  let solve_linear_regularized jac rhs =
    let n = Array.length rhs in
    let rec attempt gmin =
      let m = Numerics.Matrix.copy jac in
      if gmin > 0.0 then
        for i = 0 to n - 1 do
          Numerics.Matrix.add_to m i i gmin
        done;
      match Lu.solve m rhs with
      | x -> x
      | exception Numerics.Lu.Singular ->
        if gmin > 1.0 then Array.make n 0.0
        else attempt (if gmin = 0.0 then 1e-12 else gmin *. 100.0)
    in
    attempt 0.0

  let solve_custom ~tol ~max_iter ~max_step ~residual ~solve_step ~x0 =
    let damping = 1.0 in
    let n = Array.length x0 in
    let x = Array.copy x0 in
    let rec iterate iter fnorm =
      if fnorm < tol then
        { Numerics.Newton.x; converged = true; iterations = iter; residual = fnorm }
      else if iter >= max_iter then
        { Numerics.Newton.x; converged = false; iterations = iter; residual = fnorm }
      else begin
        let f = residual x in
        let neg_f = Array.map (fun v -> -.v) f in
        let dx = solve_step x neg_f in
        for i = 0 to n - 1 do
          if dx.(i) > max_step then dx.(i) <- max_step
          else if dx.(i) < -.max_step then dx.(i) <- -.max_step
        done;
        let base = Array.copy x in
        let rec backtrack scale tries =
          for i = 0 to n - 1 do
            x.(i) <- base.(i) +. (scale *. damping *. dx.(i))
          done;
          let fnew = norm_inf (residual x) in
          if fnew < fnorm || tries >= 8 then fnew
          else backtrack (scale *. 0.5) (tries + 1)
        in
        let fnew = backtrack 1.0 0 in
        iterate (iter + 1) fnew
      end
    in
    iterate 0 (norm_inf (residual x))
end

module Dc = struct
  open Spice

  let gmin = Dc.gmin
  let node_v x node = if node = 0 then 0.0 else x.(node - 1)

  let residual ~netlist ~at_time ~source_scale ~companions x =
    let n = Netlist.num_nodes netlist in
    let res = Array.make (n - 1 + Netlist.vsource_count netlist) 0.0 in
    let kcl node amount = if node <> 0 then res.(node - 1) <- res.(node - 1) +. amount in
    for node = 1 to n - 1 do
      kcl node (gmin *. x.(node - 1))
    done;
    let src_index = ref 0 in
    let cap_index = ref 0 in
    let visit e =
      match e with
      | Netlist.Resistor { plus; minus; ohms } ->
        let i = (node_v x plus -. node_v x minus) /. ohms in
        kcl plus i;
        kcl minus (-.i)
      | Netlist.Capacitor { plus; minus; _ } ->
        (match companions with
         | None -> ()
         | Some comps ->
           let { Dc.g_eq; v_hist } = comps.(!cap_index) in
           incr cap_index;
           let i = g_eq *. (node_v x plus -. node_v x minus -. v_hist) in
           kcl plus i;
           kcl minus (-.i))
      | Netlist.Vsource { plus; minus; volts } ->
        let k = !src_index in
        incr src_index;
        let i = x.(n - 1 + k) in
        kcl plus i;
        kcl minus (-.i);
        let target = source_scale *. Netlist.waveform_at volts at_time in
        res.(n - 1 + k) <- node_v x plus -. node_v x minus -. target
      | Netlist.Isource { from_node; to_node; amps } ->
        let i = source_scale *. amps in
        kcl from_node i;
        kcl to_node (-.i)
      | Netlist.Fet { params; nfin; gate; drain; source } ->
        let i =
          Finfet.Device.drain_source_current params ~nfin ~vg:(node_v x gate)
            ~vd:(node_v x drain) ~vs:(node_v x source)
        in
        kcl drain i;
        kcl source (-.i)
    in
    List.iter visit (Netlist.elements netlist);
    res

  (* The Jacobian stamps, shared by the dense and sparse assemblies
     through [add]; the dense and sparse originals differed only in the
     sink. *)
  let stamp ~netlist ~companions ~add x =
    let n = Netlist.num_nodes netlist in
    let stamp_kcl node col g = if node <> 0 && col >= 0 then add (node - 1) col g in
    let vcol node = node - 1 in
    for node = 1 to n - 1 do
      stamp_kcl node (vcol node) gmin
    done;
    let src_index = ref 0 in
    let cap_index = ref 0 in
    let two_terminal plus minus g =
      if plus <> 0 then begin
        stamp_kcl plus (vcol plus) g;
        if minus <> 0 then stamp_kcl plus (vcol minus) (-.g)
      end;
      if minus <> 0 then begin
        stamp_kcl minus (vcol minus) g;
        if plus <> 0 then stamp_kcl minus (vcol plus) (-.g)
      end
    in
    let visit e =
      match e with
      | Netlist.Resistor { plus; minus; ohms } -> two_terminal plus minus (1.0 /. ohms)
      | Netlist.Capacitor { plus; minus; _ } ->
        (match companions with
         | None -> ()
         | Some comps ->
           let { Dc.g_eq; _ } = comps.(!cap_index) in
           incr cap_index;
           two_terminal plus minus g_eq)
      | Netlist.Vsource { plus; minus; _ } ->
        let k = !src_index in
        incr src_index;
        let row = n - 1 + k in
        if plus <> 0 then add (plus - 1) row 1.0;
        if minus <> 0 then add (minus - 1) row (-1.0);
        if plus <> 0 then add row (vcol plus) 1.0;
        if minus <> 0 then add row (vcol minus) (-1.0)
      | Netlist.Isource _ -> ()
      | Netlist.Fet { params; nfin; gate; drain; source } ->
        let h = 1e-7 in
        let vg = node_v x gate and vd = node_v x drain and vs = node_v x source in
        let i0 = Finfet.Device.drain_source_current params ~nfin ~vg ~vd ~vs in
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
          stamp_kcl drain (vcol gate) gm;
          stamp_kcl drain (vcol drain) gds;
          stamp_kcl drain (vcol source) gs
        end;
        if source <> 0 then begin
          stamp_kcl source (vcol gate) (-.gm);
          stamp_kcl source (vcol drain) (-.gds);
          stamp_kcl source (vcol source) (-.gs)
        end
    in
    List.iter visit (Netlist.elements netlist)

  let dimension netlist = Netlist.num_nodes netlist - 1 + Netlist.vsource_count netlist

  let jacobian ~netlist ~companions x =
    let dim = dimension netlist in
    let jac = Numerics.Matrix.create ~rows:dim ~cols:dim in
    stamp ~netlist ~companions ~add:(Numerics.Matrix.add_to jac) x;
    jac

  let jacobian_sparse ~netlist ~companions x =
    let builder = Numerics.Sparse.Builder.create ~n:(dimension netlist) in
    stamp ~netlist ~companions ~add:(Numerics.Sparse.Builder.add builder) x;
    Numerics.Sparse.of_builder builder

  let sparse_step ~netlist ~companions x neg_f =
    let dim = Array.length neg_f in
    let rec attempt extra_gmin =
      let base = jacobian_sparse ~netlist ~companions x in
      let jac =
        if extra_gmin = 0.0 then base
        else begin
          let b = Numerics.Sparse.Builder.create ~n:dim in
          Numerics.Sparse.iter base (fun i j v -> Numerics.Sparse.Builder.add b i j v);
          for i = 0 to dim - 1 do
            Numerics.Sparse.Builder.add b i i extra_gmin
          done;
          Numerics.Sparse.of_builder b
        end
      in
      match Numerics.Sparse_lu.solve jac neg_f with
      | dx -> dx
      | exception Numerics.Lu.Singular ->
        if extra_gmin > 1.0 then Array.make dim 0.0
        else attempt (if extra_gmin = 0.0 then 1e-12 else extra_gmin *. 100.0)
    in
    attempt 0.0

  let solve_scaled ~max_iter ~netlist ~at_time ~source_scale ~companions ~x0 =
    let residual = residual ~netlist ~at_time ~source_scale ~companions in
    let solve_step =
      if Array.length x0 >= 80 then sparse_step ~netlist ~companions
      else fun x neg_f ->
        Newton.solve_linear_regularized (jacobian ~netlist ~companions x) neg_f
    in
    Newton.solve_custom ~tol:1e-12 ~max_iter ~max_step:0.15 ~residual ~solve_step ~x0

  let unpack netlist (result : Numerics.Newton.result) ~iterations =
    let n = Netlist.num_nodes netlist in
    let voltages = Array.make n 0.0 in
    Array.blit result.Numerics.Newton.x 0 voltages 1 (n - 1);
    let source_currents =
      Array.sub result.Numerics.Newton.x (n - 1) (Netlist.vsource_count netlist)
    in
    { Dc.voltages; source_currents; converged = result.Numerics.Newton.converged;
      iterations }

  let solve_with_companions ?x0 ?(at_time = 0.0) ?(direct_iterations = 150) ~companions
      netlist =
    (match Netlist.validate netlist with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Dc.operating_point: " ^ msg));
    let dim = dimension netlist in
    let start = match x0 with Some v -> Array.copy v | None -> Array.make dim 0.0 in
    let direct =
      solve_scaled ~max_iter:direct_iterations ~netlist ~at_time ~source_scale:1.0
        ~companions ~x0:start
    in
    if direct.Numerics.Newton.converged then
      unpack netlist direct ~iterations:direct.Numerics.Newton.iterations
    else begin
      let x = ref (Array.make dim 0.0) in
      let total = ref direct.Numerics.Newton.iterations in
      let last = ref direct in
      List.iter
        (fun scale ->
          let r =
            solve_scaled ~max_iter:150 ~netlist ~at_time ~source_scale:scale ~companions
              ~x0:!x
          in
          total := !total + r.Numerics.Newton.iterations;
          x := r.Numerics.Newton.x;
          last := r)
        [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ];
      unpack netlist !last ~iterations:!total
    end

  let operating_point ?x0 ?at_time ?direct_iterations netlist =
    solve_with_companions ?x0 ?at_time ?direct_iterations ~companions:None netlist

  let operating_point_companioned ?x0 ?direct_iterations ~at_time ~companions netlist =
    solve_with_companions ?x0 ~at_time ?direct_iterations ~companions:(Some companions)
      netlist

  let sweep ~build ~points =
    let prev = ref None in
    Array.map
      (fun p ->
        let s = operating_point ?x0:!prev (build p) in
        prev := Some (Dc.solution_vector s);
        s)
      points
end

module Butterfly = struct
  let lobe ~(upper : Sram_cell.Butterfly.vtc) ~(lower : Sram_cell.Butterfly.vtc) =
    let open Sram_cell.Butterfly in
    let u = Numerics.Interp.pchip ~xs:upper.inputs ~ys:upper.outputs in
    let l = Numerics.Interp.pchip ~xs:lower.inputs ~ys:lower.outputs in
    let lo = upper.inputs.(0) in
    let hi = upper.inputs.(Array.length upper.inputs - 1) in
    let span = hi -. lo in
    let side_at b =
      let g x = u x -. x -. b in
      let h y = l y -. y +. b in
      match
        ( Numerics.Roots.find_bracket g ~lo ~hi ~n:64,
          Numerics.Roots.find_bracket h ~lo ~hi ~n:64 )
      with
      | Some (glo, ghi), Some (hlo, hhi) ->
        let x1 = Numerics.Roots.brent ~tol:1e-9 g ~lo:glo ~hi:ghi in
        let y2 = Numerics.Roots.brent ~tol:1e-9 h ~lo:hlo ~hi:hhi in
        x1 -. (y2 -. b)
      | None, (Some _ | None) | Some _, None -> neg_infinity
    in
    let best = ref 0.0 in
    for k = 1 to 159 do
      let s = side_at (span *. float_of_int k /. 160.0) in
      if s > !best then best := s
    done;
    !best

  let snm ?points ~cell ~access_on condition =
    let curve side = Sram_cell.Butterfly.trace_vtc ?points ~cell ~side ~access_on condition in
    let curve_r = curve `Right and curve_l = curve `Left in
    min (lobe ~upper:curve_r ~lower:curve_l) (lobe ~upper:curve_l ~lower:curve_r)
end

module Dynamics = struct
  let write_delay ?(t_stop = 30e-12) ?(wl_rise = 1e-12) ~cell condition =
    let open Sram_cell in
    let wl_wave =
      Spice.Netlist.Step
        { t_delay = 1e-12; t_rise = wl_rise; v0 = 0.0; v1 = condition.Sram6t.vwl }
    in
    let netlist, nodes = Sram6t.build ~with_node_caps:true ~wl_wave ~cell condition in
    let vdd = condition.Sram6t.vdd in
    let trace =
      Spice.Transient.run ~dt:(t_stop /. 600.0)
        ~ic:[ (nodes.Sram6t.q, vdd); (nodes.Sram6t.qb, 0.0) ]
        ~t_stop netlist
    in
    let wl_cross_time =
      match
        Spice.Transient.crossing_time trace ~node:nodes.Sram6t.wl
          ~threshold:(0.5 *. vdd) ~direction:`Rising
      with
      | Some t -> t
      | None -> 1e-12 +. (0.5 *. wl_rise)
    in
    let q = Spice.Transient.node_trace trace nodes.Sram6t.q in
    let qb = Spice.Transient.node_trace trace nodes.Sram6t.qb in
    let n = Array.length trace.Spice.Transient.times in
    let rec find k =
      if k >= n then None
      else if q.(k) -. qb.(k) <= 0.0 then begin
        let d_prev = q.(k - 1) -. qb.(k - 1) in
        let d_cur = q.(k) -. qb.(k) in
        let frac = if d_cur = d_prev then 0.0 else d_prev /. (d_prev -. d_cur) in
        let t_prev = trace.Spice.Transient.times.(k - 1) in
        let t_cur = trace.Spice.Transient.times.(k) in
        Some (t_prev +. (frac *. (t_cur -. t_prev)))
      end
      else find (k + 1)
    in
    match find 1 with
    | Some t_cross ->
      { Sram_cell.Dynamics.delay = t_cross -. wl_cross_time; flipped = true; wl_cross_time }
    | None -> { Sram_cell.Dynamics.delay = infinity; flipped = false; wl_cross_time }
end

module Periphery = struct
  let write_delay_table ~cell_flavor =
    let lib = Lazy.force Finfet.Library.default in
    let cell =
      Finfet.Variation.nominal_cell
        ~nfet:(Finfet.Library.nfet lib cell_flavor)
        ~pfet:(Finfet.Library.pfet lib cell_flavor)
    in
    let delay_at vwl =
      let r = Dynamics.write_delay ~cell (Sram_cell.Sram6t.write0 ~vwl ()) in
      if r.Sram_cell.Dynamics.flipped then r.Sram_cell.Dynamics.delay else 50e-12
    in
    let grid = Array_model.Periphery.vwl_grid in
    Numerics.Interp.Table1d.create grid (Array.map delay_at grid)
end

module Yield = struct
  let margins_ok ~flavor ~vddc ~vssc ~vwl =
    let delta = Finfet.Tech.min_margin and points = 81 in
    let cell = Opt.Yield.cell_of flavor in
    Sram_cell.Margins.hold_snm ~points ~cell Finfet.Tech.vdd_nominal >= delta
    && Opt.Yield.rsnm_at ~flavor ~vddc ~vssc () >= delta
    && Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ()) >= delta
end
