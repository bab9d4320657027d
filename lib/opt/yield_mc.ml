type config = {
  k : float;
  samples : int;
  sigma_vt : float;
  seed : int;
  points : int;
}

let default_config =
  { k = 3.0; samples = 25; sigma_vt = Finfet.Variation.sigma_vt_default;
    seed = 7; points = 31 }

let devices_of flavor =
  let lib = Lazy.force Finfet.Library.default in
  (Finfet.Library.nfet lib flavor, Finfet.Library.pfet lib flavor)

let mu_minus_k_sigma cfg values = Numerics.Stats.mu_minus_k_sigma values ~k:cfg.k

(* Batch size of the chunked (pool) sampling path.  Fixed — independent
   of the pool's job count — so the concatenated sample stream, and with
   it every solved pin, is identical for 1, 2 or N jobs. *)
let batch_samples = 8

let batch_seed base index = base + (1021 * (index + 1))

let concat_samples parts =
  let field f =
    Array.concat (List.map f (Array.to_list parts))
  in
  { Sram_cell.Montecarlo.hsnm = field (fun s -> s.Sram_cell.Montecarlo.hsnm);
    rsnm = field (fun s -> s.Sram_cell.Montecarlo.rsnm);
    wm = field (fun s -> s.Sram_cell.Montecarlo.wm) }

(* Draw the margin samples for one constraint evaluation.  Without a
   pool this is the original single-stream draw; with a pool the draws
   split into fixed-size batches with per-batch RNG streams keyed by
   (seed, batch index), evaluated in parallel and concatenated in batch
   order. *)
let samples_at ?pool cfg ~flavor ~vddc ~vssc ~vwl =
  let nfet, pfet = devices_of flavor in
  let draw ~seed ~n =
    Sram_cell.Montecarlo.sample_margins ~sigma_vt:cfg.sigma_vt
      ~points:cfg.points ~seed ~n ~nfet ~pfet
      ~read_condition:(Sram_cell.Sram6t.read ~vddc ~vssc ())
      ~write_condition:(Sram_cell.Sram6t.write0 ~vwl ())
      ()
  in
  match pool with
  | None -> draw ~seed:cfg.seed ~n:cfg.samples
  | Some pool ->
    let batches = (cfg.samples + batch_samples - 1) / batch_samples in
    let parts =
      Runtime.Pool.parmap ~chunk:1 pool
        (fun b ->
          let n = min batch_samples (cfg.samples - (b * batch_samples)) in
          draw ~seed:(batch_seed cfg.seed b) ~n)
        (Array.init batches (fun b -> b))
    in
    concat_samples parts

(* One constraint evaluation: sample margins at the given rails. *)
let sample_worst ?pool cfg ~flavor ~vddc ~vssc ~vwl =
  let samples = samples_at ?pool cfg ~flavor ~vddc ~vssc ~vwl in
  min
    (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.hsnm)
    (min
       (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.rsnm)
       (mu_minus_k_sigma cfg samples.Sram_cell.Montecarlo.wm))

type key = {
  k_flavor : Finfet.Library.flavor;
  k_vddc : float;
  k_vssc : float;
  k_vwl : float;
  k_cfg : config;
  k_chunked : bool;  (* chunked (pool) draws use a different stream *)
}

let cache : (key, float) Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield_mc.worst_margin" ~capacity:512 ()

let worst_margin_timer = Obs.Histogram.timer "yield_mc.worst_margin"

let worst_margin ?(config = default_config) ?pool ~flavor ~vddc ~vssc ~vwl () =
  let key =
    { k_flavor = flavor; k_vddc = vddc; k_vssc = vssc; k_vwl = vwl;
      k_cfg = config; k_chunked = pool <> None }
  in
  Runtime.Memo.find_or_compute cache key (fun () ->
      Obs.Histogram.span worst_margin_timer (fun () ->
          sample_worst ?pool config ~flavor ~vddc ~vssc ~vwl))

type levels = {
  vddc_min : float;
  vwl_min : float;
  achieved_margin : float;
}

(* Grid walk upward on the 10 mV grid until the per-margin k-sigma
   condition holds; the margins' means are monotone in their own voltage,
   so the first passing grid point is the minimum. *)
let grid_search ~lo ~hi passes =
  let rec walk v =
    if v > hi then hi
    else if passes v then v
    else walk (v +. Yield.voltage_grid)
  in
  walk lo

let solve ?(config = default_config) ?pool ~flavor () =
  let margins_at ~vddc ~vwl =
    samples_at ?pool config ~flavor ~vddc ~vssc:0.0 ~vwl
  in
  let vdd = Finfet.Tech.vdd_nominal in
  (* RSNM pins V_DDC (WL level is irrelevant to the read distribution). *)
  let vddc_min =
    grid_search ~lo:vdd ~hi:0.80 (fun vddc ->
        let s = margins_at ~vddc ~vwl:vdd in
        mu_minus_k_sigma config s.Sram_cell.Montecarlo.rsnm >= 0.0)
  in
  (* WM pins V_WL. *)
  let vwl_min =
    grid_search ~lo:vdd ~hi:0.85 (fun vwl ->
        let s = margins_at ~vddc:vddc_min ~vwl in
        mu_minus_k_sigma config s.Sram_cell.Montecarlo.wm >= 0.0)
  in
  { vddc_min;
    vwl_min;
    achieved_margin =
      worst_margin ~config ?pool ~flavor ~vddc:vddc_min ~vssc:0.0
        ~vwl:vwl_min () }
