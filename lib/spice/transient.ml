type trace = {
  times : float array;
  voltages : float array array;
  source_currents : float array array;
}

type method_ = Backward_euler | Trapezoidal

let capacitors netlist =
  List.filter_map
    (function
      | Netlist.Capacitor { plus; minus; farads } -> Some (plus, minus, farads)
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Fet _ -> None)
    (Netlist.elements netlist)

(* One implicit step from [state] (node voltages) over [h], with [i_caps]
   holding each capacitor's branch current entering the step (used by the
   trapezoidal rule; ignored by backward Euler).  Returns the DC solution
   and the updated capacitor currents. *)
let step ~method_ ~compiled ~caps ~warm ~state ~i_caps ~t ~h =
  let companions =
    Array.mapi
      (fun idx (plus, minus, farads) ->
        let v_prev = state.(plus) -. state.(minus) in
        match method_ with
        | Backward_euler -> { Dc.g_eq = farads /. h; v_hist = v_prev }
        | Trapezoidal ->
          (* i = (2C/h)(v - v_prev) - i_prev = g (v - v_hist) with
             v_hist = v_prev + i_prev h / (2C). *)
          let g_eq = 2.0 *. farads /. h in
          { Dc.g_eq; v_hist = v_prev +. (i_caps.(idx) /. g_eq) })
      caps
  in
  let s = Dc.solve ?x0:warm ~at_time:t ~companions compiled in
  let i_caps' =
    Array.mapi
      (fun idx (plus, minus, _) ->
        let v_new = s.Dc.voltages.(plus) -. s.Dc.voltages.(minus) in
        let { Dc.g_eq; v_hist } = companions.(idx) in
        g_eq *. (v_new -. v_hist))
      caps
  in
  (s, i_caps')

let initial_state ?(ic = []) compiled =
  let init = Dc.solve ~at_time:0.0 compiled in
  let v = Array.copy init.Dc.voltages in
  List.iter (fun (node, volts) -> v.(node) <- volts) ic;
  (v, init.Dc.source_currents)

let run ?dt ?ic ?(method_ = Backward_euler) ~t_stop netlist =
  assert (t_stop > 0.0);
  let dt = match dt with Some d -> d | None -> t_stop /. 400.0 in
  assert (dt > 0.0);
  let caps = Array.of_list (capacitors netlist) in
  let compiled = Dc.compile netlist in
  let v0, i_src0 = initial_state ?ic compiled in
  let steps = int_of_float (ceil (t_stop /. dt)) in
  let times = Array.make (steps + 1) 0.0 in
  let voltages = Array.make (steps + 1) [||] in
  let source_currents = Array.make (steps + 1) [||] in
  voltages.(0) <- Array.copy v0;
  source_currents.(0) <- Array.copy i_src0;
  let warm = ref None in
  let state = ref v0 in
  let i_caps = ref (Array.make (Array.length caps) 0.0) in
  for k = 1 to steps do
    let t = min (float_of_int k *. dt) t_stop in
    let h = t -. times.(k - 1) in
    if h > 0.0 then begin
      (* The trapezoidal rule needs each capacitor's entering current; the
         first step has no history, so it runs backward Euler (whose
         result supplies consistent currents for step two). *)
      let method_now = if k = 1 then Backward_euler else method_ in
      let s, i' =
        step ~method_:method_now ~compiled ~caps ~warm:!warm ~state:!state
          ~i_caps:!i_caps ~t ~h
      in
      warm := Some (Dc.solution_vector s);
      state := s.Dc.voltages;
      i_caps := i';
      times.(k) <- t;
      voltages.(k) <- Array.copy s.Dc.voltages;
      source_currents.(k) <- Array.copy s.Dc.source_currents
    end
    else begin
      times.(k) <- times.(k - 1);
      voltages.(k) <- voltages.(k - 1);
      source_currents.(k) <- source_currents.(k - 1)
    end
  done;
  { times; voltages; source_currents }

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri
    (fun i x -> worst := max !worst (abs_float (x -. b.(i))))
    a;
  !worst

let run_adaptive ?dt_min ?dt_max ?(dv_max = 0.030) ?ic
    ?(method_ = Backward_euler) ~t_stop netlist =
  assert (t_stop > 0.0);
  let dt_min = match dt_min with Some d -> d | None -> t_stop /. 1e5 in
  let dt_max = match dt_max with Some d -> d | None -> t_stop /. 20.0 in
  assert (dt_min > 0.0 && dt_max >= dt_min);
  let caps = Array.of_list (capacitors netlist) in
  let compiled = Dc.compile netlist in
  let v0, i_src0 = initial_state ?ic compiled in
  let rev_times = ref [ 0.0 ] in
  let rev_voltages = ref [ Array.copy v0 ] in
  let rev_currents = ref [ Array.copy i_src0 ] in
  let state = ref v0 in
  let i_caps = ref (Array.make (Array.length caps) 0.0) in
  let warm = ref None in
  let t = ref 0.0 in
  let h = ref (min dt_max (t_stop /. 100.0)) in
  let first = ref true in
  while !t < t_stop -. 1e-18 *. t_stop do
    let h_now = min !h (t_stop -. !t) in
    let t_next = !t +. h_now in
    let method_now = if !first then Backward_euler else method_ in
    let s, i' =
      step ~method_:method_now ~compiled ~caps ~warm:!warm ~state:!state
        ~i_caps:!i_caps ~t:t_next ~h:h_now
    in
    let dv = max_abs_diff s.Dc.voltages !state in
    if dv > dv_max && h_now > dt_min then
      (* Reject: too sharp for this step; the halved step also re-solves
         the same interval, so nothing is recorded. *)
      h := max dt_min (0.5 *. h_now)
    else begin
      first := false;
      t := t_next;
      state := s.Dc.voltages;
      i_caps := i';
      warm := Some (Dc.solution_vector s);
      rev_times := !t :: !rev_times;
      rev_voltages := Array.copy s.Dc.voltages :: !rev_voltages;
      rev_currents := Array.copy s.Dc.source_currents :: !rev_currents;
      if dv < 0.25 *. dv_max then h := min dt_max (1.5 *. h_now)
    end
  done;
  { times = Array.of_list (List.rev !rev_times);
    voltages = Array.of_list (List.rev !rev_voltages);
    source_currents = Array.of_list (List.rev !rev_currents) }

let node_trace trace node = Array.map (fun v -> v.(node)) trace.voltages

let crossing_time trace ~node ~threshold ~direction =
  let n = Array.length trace.times in
  let crosses a b =
    match direction with
    | `Rising -> a < threshold && b >= threshold
    | `Falling -> a > threshold && b <= threshold
  in
  let rec scan k =
    if k >= n then None
    else begin
      let a = trace.voltages.(k - 1).(node) and b = trace.voltages.(k).(node) in
      if crosses a b then begin
        let frac = if b = a then 0.0 else (threshold -. a) /. (b -. a) in
        Some (trace.times.(k - 1) +. (frac *. (trace.times.(k) -. trace.times.(k - 1))))
      end
      else scan (k + 1)
    end
  in
  if n < 2 then None else scan 1

let value_at trace ~node ~time =
  let n = Array.length trace.times in
  assert (n > 0);
  if time <= trace.times.(0) then trace.voltages.(0).(node)
  else if time >= trace.times.(n - 1) then trace.voltages.(n - 1).(node)
  else begin
    let rec find k = if trace.times.(k) >= time then k else find (k + 1) in
    let k = find 1 in
    let t0 = trace.times.(k - 1) and t1 = trace.times.(k) in
    let v0 = trace.voltages.(k - 1).(node) and v1 = trace.voltages.(k).(node) in
    if t1 = t0 then v1 else v0 +. ((v1 -. v0) *. ((time -. t0) /. (t1 -. t0)))
  end

let source_energy trace netlist ~source_index =
  let waveforms =
    List.filter_map
      (function
        | Netlist.Vsource { volts; _ } -> Some volts
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Isource _
        | Netlist.Fet _ -> None)
      (Netlist.elements netlist)
  in
  let wave = List.nth waveforms source_index in
  let n = Array.length trace.times in
  let power k =
    let v = Netlist.waveform_at wave trace.times.(k) in
    -.v *. trace.source_currents.(k).(source_index)
  in
  let acc = ref 0.0 in
  for k = 1 to n - 1 do
    let dt = trace.times.(k) -. trace.times.(k - 1) in
    acc := !acc +. (0.5 *. dt *. (power k +. power (k - 1)))
  done;
  !acc

let delivered_energy trace netlist =
  let n_sources = Netlist.vsource_count netlist in
  let acc = ref 0.0 in
  for i = 0 to n_sources - 1 do
    acc := !acc +. source_energy trace netlist ~source_index:i
  done;
  !acc
