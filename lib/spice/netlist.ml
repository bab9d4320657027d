type node = int

let ground = 0

type waveform =
  | Const of float
  | Step of { t_delay : float; t_rise : float; v0 : float; v1 : float }
  | Pwl of (float * float) list

let waveform_at w t =
  match w with
  | Const v -> v
  | Step { t_delay; t_rise; v0; v1 } ->
    if t <= t_delay then v0
    else if t_rise <= 0.0 || t >= t_delay +. t_rise then v1
    else v0 +. ((v1 -. v0) *. ((t -. t_delay) /. t_rise))
  | Pwl corners ->
    let rec interp = function
      | [] -> 0.0
      | [ (_, v) ] -> v
      | (t0, v0) :: ((t1, v1) :: _ as rest) ->
        if t <= t0 then v0
        else if t <= t1 then v0 +. ((v1 -. v0) *. ((t -. t0) /. (t1 -. t0)))
        else interp rest
    in
    interp corners

type element =
  | Resistor of { plus : node; minus : node; ohms : float }
  | Capacitor of { plus : node; minus : node; farads : float }
  | Vsource of { plus : node; minus : node; volts : waveform }
  | Isource of { from_node : node; to_node : node; amps : float }
  | Fet of {
      params : Finfet.Device.params;
      nfin : int;
      gate : node;
      drain : node;
      source : node;
    }

type t = {
  mutable names : string list; (* reverse order, excludes ground *)
  mutable count : int;         (* nodes allocated including ground *)
  mutable elems : element list; (* reverse insertion order *)
  mutable n_vsrc : int;
}

let create () = { names = []; count = 1; elems = []; n_vsrc = 0 }

let fresh_node t name =
  let id = t.count in
  t.count <- t.count + 1;
  t.names <- name :: t.names;
  id

let node_name t n =
  if n = 0 then "gnd"
  else begin
    let names = Array.of_list (List.rev t.names) in
    if n - 1 < Array.length names then names.(n - 1) else Printf.sprintf "n%d" n
  end

let add t e =
  (match e with Vsource _ -> t.n_vsrc <- t.n_vsrc + 1 | Resistor _ | Capacitor _ | Isource _ | Fet _ -> ());
  t.elems <- e :: t.elems

let num_nodes t = t.count
let elements t = List.rev t.elems
let vsource_count t = t.n_vsrc

let validate t =
  let ok_node n = n >= 0 && n < t.count in
  let check e =
    match e with
    | Resistor { plus; minus; ohms } ->
      if not (ok_node plus && ok_node minus) then Error "resistor: bad node"
      else if ohms <= 0.0 then Error "resistor: non-positive resistance"
      else Ok ()
    | Capacitor { plus; minus; farads } ->
      if not (ok_node plus && ok_node minus) then Error "capacitor: bad node"
      else if farads <= 0.0 then Error "capacitor: non-positive capacitance"
      else Ok ()
    | Vsource { plus; minus; _ } ->
      if ok_node plus && ok_node minus then Ok () else Error "vsource: bad node"
    | Isource { from_node; to_node; _ } ->
      if ok_node from_node && ok_node to_node then Ok () else Error "isource: bad node"
    | Fet { gate; drain; source; nfin; _ } ->
      if not (ok_node gate && ok_node drain && ok_node source) then Error "fet: bad node"
      else if nfin <= 0 then Error "fet: non-positive fin count"
      else Ok ()
  in
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> check e)
    (Ok ()) (elements t)

let resistor t ~plus ~minus ~ohms = add t (Resistor { plus; minus; ohms })
let capacitor t ~plus ~minus ~farads = add t (Capacitor { plus; minus; farads })
let vdc t ~plus ~minus ~volts = add t (Vsource { plus; minus; volts = Const volts })
let vwave t ~plus ~minus ~wave = add t (Vsource { plus; minus; volts = wave })
let idc t ~from_node ~to_node ~amps = add t (Isource { from_node; to_node; amps })

let fet t ~params ?(nfin = 1) ~gate ~drain ~source () =
  add t (Fet { params; nfin; gate; drain; source })
