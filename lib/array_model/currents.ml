type t = {
  nfet_per : Finfet.Device.params;  (* LVT periphery devices *)
  pfet_per : Finfet.Device.params;
  i_on_pfet : float;
  i_on_tg : float;
  lib : Finfet.Library.t;
  cell_flavor : Finfet.Library.flavor;
  read_current_model :
    [ `Simulated | `Paper_fit | `Custom of vddc:float -> vssc:float -> float ];
  read_cache : (float * float, float) Runtime.Memo.t;
}

let vdd = Finfet.Tech.vdd_nominal

let create ~lib ~cell_flavor ~read_current_model =
  let nfet_per = Finfet.Library.nfet lib Finfet.Library.Lvt in
  let pfet_per = Finfet.Library.pfet lib Finfet.Library.Lvt in
  { nfet_per;
    pfet_per;
    (* The two assist-blind ON currents, evaluated once: the drives
       below are arithmetic on them. *)
    i_on_pfet = Finfet.Device.i_on pfet_per;
    i_on_tg =
      Finfet.Device.ids nfet_per ~vgs:vdd ~vds:(0.5 *. vdd)
      +. Finfet.Device.ids pfet_per ~vgs:vdd ~vds:(0.5 *. vdd);
    lib;
    cell_flavor;
    read_current_model;
    (* Domain-safe: the exhaustive search hits this from pool workers.
       A search only ever sees |vssc_values| distinct keys, so the bound
       is generous. *)
    read_cache = Runtime.Memo.create ~name:"currents.read" ~capacity:1024 () }

let i_on_pfet t = t.i_on_pfet
let i_on_tg t = t.i_on_tg

let rail_fins = float_of_int Gates.Superbuffer.rail_driver_fins
let wl_fins = float_of_int Gates.Superbuffer.wl_driver_fins

let cvdd_driver t ~vddc =
  (* PFET mux pulling the row's supply rail up to the boosted level. *)
  0.30 *. rail_fins *. Finfet.Device.ids t.pfet_per ~vgs:vddc ~vds:vddc

let cvss_driver t ~vssc =
  (* NFET mux pulling the row's ground rail down to the negative level;
     its gate drive spans vdd - vssc, its available swing |vssc|. *)
  let swing = max (-.vssc) 0.02 in
  0.15 *. rail_fins *. Finfet.Device.ids t.nfet_per ~vgs:(vdd -. vssc) ~vds:swing

let wl_read t = 0.25 *. wl_fins *. t.i_on_pfet

let wl_write t ~vwl =
  0.18 *. wl_fins *. Finfet.Device.ids t.pfet_per ~vgs:vwl ~vds:vwl

let col_driver t = 0.33 *. wl_fins *. t.i_on_pfet

let bl_write t ~n_wr = 0.50 *. float_of_int n_wr *. t.i_on_tg

let precharge t ~n_pre = 0.50 *. float_of_int n_pre *. t.i_on_pfet

let read_current t ~vddc ~vssc =
  match t.read_current_model with
  | `Paper_fit -> Finfet.Calibration.paper_read_current ~vddc ~vssc
  | `Custom f -> f ~vddc ~vssc
  | `Simulated ->
    Runtime.Memo.find_or_compute t.read_cache (vddc, vssc) (fun () ->
        Finfet.Library.i_read t.lib t.cell_flavor ~vddc ~vssc)
