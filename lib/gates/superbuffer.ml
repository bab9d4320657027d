type t = {
  stage_fins : int list;
  nfet : Finfet.Device.params;
  pfet : Finfet.Device.params;
}

let wl_driver_fins = 27
let rail_driver_fins = 20

let default_wl_driver ~nfet ~pfet = { stage_fins = [ 1; 3; 9; 27 ]; nfet; pfet }

let gates_of t =
  List.map
    (fun nfin -> Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin)
    t.stage_fins

let chain_all t ~c_load =
  let tau = Logical_effort.tau ~nfet:t.nfet ~pfet:t.pfet in
  let gates = gates_of t in
  let n = List.length gates in
  let stages =
    List.mapi (fun i g -> (g, if i = n - 1 then c_load else 0.0)) gates
  in
  Logical_effort.chain ~tau ~vdd:Finfet.Tech.vdd_nominal ~stages

let design ~nfet ~pfet ~c_load =
  (* Width-quantized equal-effort sizing: try 2..4 stages; for each depth,
     the continuous optimum is a geometric ratio rho = (c_load/c_in1)^(1/n)
     whose per-stage fins we round to integers (>= 1), then keep the depth
     with the smallest modelled delay. *)
  let c_in1 = (Logical_effort.inverter ~nfet ~pfet ~nfin:1).Logical_effort.c_in in
  let candidate depth =
    let rho = (c_load /. c_in1) ** (1.0 /. float_of_int depth) in
    let rho = max rho 1.0 in
    let fins =
      List.init depth (fun i -> max 1 (int_of_float (Float.round (rho ** float_of_int i))))
    in
    { stage_fins = fins; nfet; pfet }
  in
  let with_delay t = (t, (chain_all t ~c_load).Logical_effort.delay) in
  let candidates = List.map (fun d -> with_delay (candidate d)) [ 2; 3; 4 ] in
  let best =
    List.fold_left
      (fun (bt, bd) (t, d) -> if d < bd then (t, d) else (bt, bd))
      (List.hd candidates |> fun (t, d) -> (t, d))
      (List.tl candidates)
  in
  fst best

let delay t ~c_load = (chain_all t ~c_load).Logical_effort.delay

let continuous_optimum_delay ~nfet ~pfet ~c_load =
  let tau = Logical_effort.tau ~nfet ~pfet in
  let inv = Logical_effort.inverter ~nfet ~pfet ~nfin:1 in
  let h = max (c_load /. inv.Logical_effort.c_in) 1.0 in
  (* For each depth n <= 4: equal stage efforts h^(1/n), parasitic 1 per
     stage; take the best. *)
  let at_depth n =
    let fn = float_of_int n in
    tau *. ((fn *. (h ** (1.0 /. fn))) +. fn)
  in
  List.fold_left min (at_depth 1) (List.map at_depth [ 2; 3; 4 ])

let quantization_penalty ~nfet ~pfet ~c_load =
  let quantized = delay (design ~nfet ~pfet ~c_load) ~c_load in
  (quantized /. continuous_optimum_delay ~nfet ~pfet ~c_load) -. 1.0

let split_last t =
  match List.rev t.stage_fins with
  | [] -> invalid_arg "Superbuffer: empty driver"
  | last :: rev_front -> (List.rev rev_front, last)

let first_stages_delay t =
  let front, last = split_last t in
  match front with
  | [] -> 0.0
  | _ ->
    let tau = Logical_effort.tau ~nfet:t.nfet ~pfet:t.pfet in
    let final_c_in =
      (Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin:last).Logical_effort.c_in
    in
    let gates =
      List.map (fun nfin -> Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin) front
    in
    let n = List.length gates in
    let stages =
      List.mapi (fun i g -> (g, if i = n - 1 then final_c_in else 0.0)) gates
    in
    (Logical_effort.chain ~tau ~vdd:Finfet.Tech.vdd_nominal ~stages).Logical_effort.delay

let first_stages_energy t ~vdd =
  let front, last = split_last t in
  match front with
  | [] -> 0.0
  | _ ->
    let tau = Logical_effort.tau ~nfet:t.nfet ~pfet:t.pfet in
    let final_c_in =
      (Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin:last).Logical_effort.c_in
    in
    let gates =
      List.map (fun nfin -> Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin) front
    in
    let n = List.length gates in
    let stages =
      List.mapi (fun i g -> (g, if i = n - 1 then final_c_in else 0.0)) gates
    in
    ignore tau;
    (Logical_effort.chain ~tau ~vdd ~stages).Logical_effort.energy

let input_cap t =
  match t.stage_fins with
  | [] -> invalid_arg "Superbuffer: empty driver"
  | first :: _ ->
    (Logical_effort.inverter ~nfet:t.nfet ~pfet:t.pfet ~nfin:first).Logical_effort.c_in
