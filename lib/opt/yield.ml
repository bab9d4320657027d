let voltage_grid = 0.010
let vddc_max = 0.80

let snap_up v = ceil ((v /. voltage_grid) -. 1e-9) *. voltage_grid

let cell_of ?(corner = Finfet.Corners.TT) ?(celsius = Finfet.Thermal.t_ref_celsius)
    flavor =
  let lib = Lazy.force Finfet.Library.default in
  let derate d =
    Finfet.Thermal.at_temperature ~celsius (Finfet.Corners.apply corner d)
  in
  Finfet.Variation.nominal_cell
    ~nfet:(derate (Finfet.Library.nfet lib flavor))
    ~pfet:(derate (Finfet.Library.pfet lib flavor))

type levels = {
  vddc_min : float;
  vwl_min : float;
  hsnm_nominal : float;
}

let rsnm_cache :
  (Finfet.Library.flavor * float * float * int, float) Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield.rsnm" ~capacity:1024 ()

let rsnm_at ?(points = 81) ~flavor ~vddc ~vssc () =
  Runtime.Memo.find_or_compute rsnm_cache (flavor, vddc, vssc, points)
    (fun () ->
      let cell = cell_of flavor in
      Sram_cell.Margins.read_snm ~points ~cell
        (Sram_cell.Sram6t.read ~vddc ~vssc ()))

let solve_cache :
  (Finfet.Library.flavor * float * int * Finfet.Corners.corner option
   * float option,
   levels)
  Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield.solve" ~capacity:64 ()

let solve_timer = Obs.Histogram.timer "yield.solve"

exception Infeasible of {
  flavor : Finfet.Library.flavor;
  corner : Finfet.Corners.corner;
  celsius : float;
  rsnm : float;
  delta : float;
}

let () =
  Printexc.register_printer (function
    | Infeasible { flavor; corner; celsius; rsnm; delta } ->
      Some
        (Printf.sprintf
           "Yield.Infeasible: %s at %s, %g C: RSNM reaches only %.4f V at \
            V_DDC = %.2f V, below delta = %.4f V"
           (Finfet.Library.flavor_to_string flavor) (Finfet.Corners.name corner)
           celsius rsnm vddc_max delta)
    | _ -> None)

let grid_point k = float_of_int k *. voltage_grid

let solve_uncached ?(delta = Finfet.Tech.min_margin) ?(points = 81) ?corner
    ?celsius ~flavor () =
  let cell = cell_of ?corner ?celsius flavor in
  let vdd = Finfet.Tech.vdd_nominal in
  let rsnm vddc = Sram_cell.Margins.read_snm ~points ~cell (Sram_cell.Sram6t.read ~vddc ()) in
  let vddc_min =
    if rsnm vdd -. delta >= 0.0 then vdd
    else begin
      (* RSNM grows monotonically with V_DDC (stronger pull-down
         feedback; test_opt checks it on this grid), so bisect on the
         10 mV grid itself: grid point [lo] fails, [hi] passes, or is
         the top, which the bisection never evaluates.  Only when every
         midpoint fails does the answer rest on the top, so only then
         is it evaluated, to tell a pass from [Infeasible]. *)
      let top = int_of_float (Float.round (vddc_max /. voltage_grid)) in
      let rec bisect lo hi =
        if hi - lo <= 1 then hi
        else begin
          let mid = (lo + hi) / 2 in
          if rsnm (grid_point mid) -. delta >= 0.0 then bisect lo mid else bisect mid hi
        end
      in
      let pass = bisect (int_of_float (floor ((vdd /. voltage_grid) +. 1e-9))) top in
      if pass = top then begin
        let at_top = rsnm (grid_point top) in
        if at_top -. delta < 0.0 then
          raise
            (Infeasible
               { flavor;
                 corner = Option.value corner ~default:Finfet.Corners.TT;
                 celsius = Option.value celsius ~default:Finfet.Thermal.t_ref_celsius;
                 rsnm = at_top;
                 delta })
      end;
      grid_point pass
    end
  in
  (* WM(v_wl) = v_wl - minimum flipping level, so the minimum write level
     is one bisection of the flip point away. *)
  let flip =
    Sram_cell.Margins.minimum_flipping_vwl ~cell (Sram_cell.Sram6t.write0 ())
  in
  let vwl_min = max vdd (snap_up (flip +. delta)) in
  let hsnm_nominal = Sram_cell.Margins.hold_snm ~points ~cell vdd in
  { vddc_min; vwl_min; hsnm_nominal }

(* Disk tier (inactive until the CLI sets --cache-dir): yield pins are
   pure functions of the key, so they persist across processes. *)
let disk_cache = Persist.Cache.create ~name:"yield.solve" ()

let disk_key (flavor, delta, points, corner, celsius) =
  Printf.sprintf "%s|%.17g|%d|%s|%s"
    (Finfet.Library.flavor_to_string flavor)
    delta points
    (match corner with None -> "-" | Some c -> Finfet.Corners.name c)
    (match celsius with None -> "-" | Some t -> Printf.sprintf "%.17g" t)

let levels_to_json l =
  Persist.Json.Obj
    [
      ("vddc_min", Persist.Json.Float l.vddc_min);
      ("vwl_min", Persist.Json.Float l.vwl_min);
      ("hsnm_nominal", Persist.Json.Float l.hsnm_nominal);
    ]

let levels_of_json j =
  match
    ( Persist.Json.float_field j "vddc_min",
      Persist.Json.float_field j "vwl_min",
      Persist.Json.float_field j "hsnm_nominal" )
  with
  | Some vddc_min, Some vwl_min, Some hsnm_nominal ->
    Some { vddc_min; vwl_min; hsnm_nominal }
  | _ -> None

let solve ?(delta = Finfet.Tech.min_margin) ?(points = 81) ?corner ?celsius
    ~flavor () =
  Runtime.Memo.find_or_compute_tiered solve_cache
    (flavor, delta, points, corner, celsius)
    ~load:(fun key ->
      Option.bind (Persist.Cache.find disk_cache (disk_key key)) levels_of_json)
    ~store:(fun key levels ->
      Persist.Cache.add disk_cache (disk_key key) (levels_to_json levels))
    (fun () ->
      Obs.Histogram.span solve_timer (fun () ->
          solve_uncached ~delta ~points ?corner ?celsius ~flavor ()))

let margins_ok ?(delta = Finfet.Tech.min_margin) ?(points = 81) ~flavor ~vddc
    ~vssc ~vwl () =
  let cell = cell_of flavor in
  let vdd = Finfet.Tech.vdd_nominal in
  let hsnm = Sram_cell.Margins.hold_snm ~points ~cell vdd in
  if hsnm < delta then false
  else if rsnm_at ~points ~flavor ~vddc ~vssc () < delta then false
  else begin
    let wm =
      Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ())
    in
    wm >= delta
  end
