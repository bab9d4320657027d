type trace = {
  times : float array;
  voltages : float array array;
  source_currents : float array array;
}

let capacitors netlist =
  List.filter_map
    (function
      | Netlist.Capacitor { plus; minus; farads } -> Some (plus, minus, farads)
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Fet _ -> None)
    (Netlist.elements netlist)

(* One backward-Euler step from [state] (node voltages) over [h]: each
   capacitor becomes the conductance C/h with the voltage it held
   entering the step as history. *)
let step ~compiled ~caps ~warm ~state ~t ~h =
  let companions =
    Array.map
      (fun (plus, minus, farads) ->
        { Dc.g_eq = farads /. h; v_hist = state.(plus) -. state.(minus) })
      caps
  in
  Dc.solve ?x0:warm ~at_time:t ~companions compiled

let initial_state ?(ic = []) compiled =
  let init = Dc.solve ~at_time:0.0 compiled in
  let v = Array.copy init.Dc.voltages in
  List.iter (fun (node, volts) -> v.(node) <- volts) ic;
  (v, init.Dc.source_currents)

let run ?dt ?ic ?until ~t_stop netlist =
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
  let stops_at k = match until with Some p -> p voltages.(k) | None -> false in
  (* Steps 1..k-1 are recorded; returns the number of samples kept. *)
  let rec advance k =
    if k > steps || stops_at (k - 1) then k
    else begin
      let t = min (float_of_int k *. dt) t_stop in
      let h = t -. times.(k - 1) in
      if h > 0.0 then begin
        let s = step ~compiled ~caps ~warm:!warm ~state:!state ~t ~h in
        warm := Some (Dc.solution_vector s);
        state := s.Dc.voltages;
        times.(k) <- t;
        voltages.(k) <- Array.copy s.Dc.voltages;
        source_currents.(k) <- Array.copy s.Dc.source_currents
      end
      else begin
        times.(k) <- times.(k - 1);
        voltages.(k) <- voltages.(k - 1);
        source_currents.(k) <- source_currents.(k - 1)
      end;
      advance (k + 1)
    end
  in
  let samples = advance 1 in
  let kept a = if samples = steps + 1 then a else Array.sub a 0 samples in
  { times = kept times; voltages = kept voltages; source_currents = kept source_currents }

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
