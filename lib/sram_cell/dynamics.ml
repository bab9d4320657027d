type write_delay_result = {
  delay : float;
  flipped : bool;
  wl_cross_time : float;
}

let write_delay ~cell condition =
  let t_stop = 30e-12 and wl_rise = 1e-12 in
  let wl_wave =
    Spice.Netlist.Step
      { t_delay = 1e-12; t_rise = wl_rise; v0 = 0.0; v1 = condition.Sram6t.vwl }
  in
  let netlist, nodes = Sram6t.build ~with_node_caps:true ~wl_wave ~cell condition in
  let vdd = condition.Sram6t.vdd in
  let wl_half = 0.5 *. vdd in
  (* Both measurements below read only samples up to the first step where
     WL has reached [wl_half] and Q has fallen to QB, so the run stops
     there; a write that never flips runs to [t_stop]. *)
  let measured v =
    v.(nodes.Sram6t.wl) >= wl_half && v.(nodes.Sram6t.q) -. v.(nodes.Sram6t.qb) <= 0.0
  in
  let trace =
    Spice.Transient.run ~dt:(t_stop /. 600.0)
      ~ic:[ (nodes.Sram6t.q, vdd); (nodes.Sram6t.qb, 0.0) ]
      ~until:measured ~t_stop netlist
  in
  let wl_cross_time =
    match
      Spice.Transient.crossing_time trace ~node:nodes.Sram6t.wl ~threshold:wl_half
        ~direction:`Rising
    with
    | Some t -> t
    | None -> 1e-12 +. (0.5 *. wl_rise)
  in
  (* Q (falling) and QB (rising) cross where their difference changes
     sign. *)
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
    { delay = t_cross -. wl_cross_time; flipped = true; wl_cross_time }
  | None -> { delay = infinity; flipped = false; wl_cross_time }
