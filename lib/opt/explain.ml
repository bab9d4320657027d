(* Sensitivity and Pareto provenance around a found winner.  Cold path:
   a handful of [evaluate] calls per axis, one keep-all enumeration for
   the front. *)

module AE = Array_model.Array_eval

type neighbor = {
  nb_value : float;
  nb_score : float;
  nb_delta : float;
}

type axis = {
  ax_name : string;
  ax_value : float;
  ax_minus : neighbor option;
  ax_plus : neighbor option;
}

let index_of arr x =
  let found = ref None in
  Array.iteri (fun i v -> if v = x && !found = None then found := Some i) arr;
  !found

let sensitivity ?(space = Space.default)
    ?(objective = Objective.Energy_delay_product) ~env ~pins
    ~(winner : Exhaustive.candidate) () =
  let g = winner.Exhaustive.geometry in
  let a = winner.Exhaustive.assist in
  let capacity_bits = Array_model.Geometry.capacity_bits g in
  (* The search's own score for the winner is bit-identical to a fresh
     [evaluate] (kernel identity), so deltas are true finite
     differences of the objective. *)
  let base = Objective.eval objective (AE.evaluate env g a) in
  let probe make value =
    match make () with
    | exception Invalid_argument _ -> None
    | None -> None
    | Some score ->
      Some { nb_value = value; nb_score = score;
             nb_delta = (score -. base) /. base }
  in
  let geometry_axis name value values ~of_index =
    let minus, plus =
      match index_of values value with
      | None -> (None, None)
      | Some i ->
        let at j =
          if j < 0 || j >= Array.length values then None
          else
            probe
              (fun () ->
                match of_index values.(j) with
                | None -> None
                | Some g' ->
                  Some (Objective.eval objective (AE.evaluate env g' a)))
              (float_of_int values.(j))
        in
        (at (i - 1), at (i + 1))
    in
    { ax_name = name; ax_value = float_of_int value;
      ax_minus = minus; ax_plus = plus }
  in
  let nr_axis =
    geometry_axis "n_r" g.Array_model.Geometry.nr space.Space.nr_values
      ~of_index:(fun nr ->
        if
          nr > capacity_bits
          || not (Array_model.Geometry.is_power_of_two (capacity_bits / nr))
        then None
        else
          Some
            (Array_model.Geometry.create ~nr ~nc:(capacity_bits / nr)
               ~w:g.Array_model.Geometry.w
               ~n_pre:g.Array_model.Geometry.n_pre
               ~n_wr:g.Array_model.Geometry.n_wr ()))
  in
  let n_pre_axis =
    geometry_axis "N_pre" g.Array_model.Geometry.n_pre
      space.Space.n_pre_values
      ~of_index:(fun n_pre ->
        Some
          (Array_model.Geometry.create ~nr:g.Array_model.Geometry.nr
             ~nc:g.Array_model.Geometry.nc ~w:g.Array_model.Geometry.w
             ~n_pre ~n_wr:g.Array_model.Geometry.n_wr ()))
  in
  let n_wr_axis =
    geometry_axis "N_wr" g.Array_model.Geometry.n_wr space.Space.n_wr_values
      ~of_index:(fun n_wr ->
        Some
          (Array_model.Geometry.create ~nr:g.Array_model.Geometry.nr
             ~nc:g.Array_model.Geometry.nc ~w:g.Array_model.Geometry.w
             ~n_pre:g.Array_model.Geometry.n_pre ~n_wr ()))
  in
  let vssc_axis =
    let value = a.Array_model.Components.vssc in
    if not pins.Space.vssc_allowed then
      { ax_name = "V_SSC"; ax_value = value; ax_minus = None; ax_plus = None }
    else begin
      let values = space.Space.vssc_values in
      let minus, plus =
        match index_of values value with
        | None -> (None, None)
        | Some i ->
          let at j =
            if j < 0 || j >= Array.length values then None
            else
              probe
                (fun () ->
                  let a' = Space.assist_of pins ~vssc:values.(j) in
                  Some (Objective.eval objective (AE.evaluate env g a')))
                values.(j)
          in
          (at (i - 1), at (i + 1))
      in
      { ax_name = "V_SSC"; ax_value = value; ax_minus = minus;
        ax_plus = plus }
    end
  in
  [ nr_axis; n_pre_axis; n_wr_axis; vssc_axis ]

type provenance = {
  pv_source : string;
  pv_evaluated : int;
  pv_front : Exhaustive.candidate list;
  pv_dominated : int;
  pv_knee : Exhaustive.candidate option;
}

let pareto ?levels ~env ~capacity_bits ~method_ () =
  let _, candidates =
    Exhaustive.search_all ?levels ~env ~capacity_bits ~method_ ()
  in
  let front = Pareto.front candidates in
  let evaluated = List.length candidates in
  { pv_source = "exhaustive (keep-all staged kernel, no pruning)";
    pv_evaluated = evaluated;
    pv_front = front;
    pv_dominated = evaluated - List.length front;
    pv_knee = Pareto.knee candidates }

let energy_rollup (at : AE.attribution) =
  let m = at.AE.at_metrics in
  let read_w = at.AE.at_alpha *. at.AE.at_beta in
  let write_w = at.AE.at_alpha *. (1.0 -. at.AE.at_beta) in
  (* Merge by component name, preserving first-appearance order. *)
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let add weight (name, e) =
    if not (Hashtbl.mem tbl name) then order := name :: !order;
    Hashtbl.replace tbl name
      ((try Hashtbl.find tbl name with Not_found -> 0.0) +. (weight *. e))
  in
  List.iter (add read_w) at.AE.at_read_energy;
  List.iter (add write_w) at.AE.at_write_energy;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order
  @ [ ("leakage", m.AE.e_leakage) ]
