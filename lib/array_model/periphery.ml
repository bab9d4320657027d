let vwl_grid = [| 0.42; 0.46; 0.50; 0.54; 0.58; 0.64; 0.72 |]

(* D_write_sram(V_WL) on [vwl_grid], one write transient per level, run
   the first time a lookup needs that level.  [Table1d.eval_by] reads
   only the level(s) bracketing its argument, so a request simulates at
   most two.  Filled levels are published through atomics and read
   without the lock; the lock only keeps two domains from simulating the
   same level twice. *)
type write_delay_table = {
  delays : float option Atomic.t array;
  simulate : float -> float;
  disk : string option;  (* the cell flavor's disk key prefix, if any *)
  lock : Mutex.t;
}

(* The characterization and each write level's transient. *)
let characterize_timer = Obs.Histogram.timer "periphery.characterize"

(* Disk tier (inactive until the CLI sets --cache-dir): against the
   default device library a level's delay is a pure function of the
   cell flavor and the level, so [shared]'s tables keep each level they
   simulate across processes, keyed "<flavor>|<V_WL in %.17g>". *)
let disk_cache = Persist.Cache.create ~name:"periphery.write_delay" ()

let simulate_level table i =
  let simulate () =
    Obs.Histogram.span characterize_timer (fun () -> table.simulate vwl_grid.(i))
  in
  match table.disk with
  | Some flavor when Persist.Cache.active disk_cache -> (
    let key = Printf.sprintf "%s|%.17g" flavor vwl_grid.(i) in
    match Option.bind (Persist.Cache.find disk_cache key) Persist.Json.to_float with
    | Some d -> d
    | None ->
      let d = simulate () in
      Persist.Cache.add disk_cache key (Persist.Json.Float d);
      d)
  | _ -> simulate ()

let level table i =
  match Atomic.get table.delays.(i) with
  | Some d -> d
  | None ->
    Mutex.protect table.lock (fun () ->
        match Atomic.get table.delays.(i) with
        | Some d -> d
        | None ->
          let d = simulate_level table i in
          Atomic.set table.delays.(i) (Some d);
          d)

type t = {
  row_decoder : Gates.Decoder.result array;
  col_decoder : Gates.Decoder.result array;
  driver_delay : float;
  driver_energy : float;
  sense_delay : float;
  sense_energy : float;
  write_cell_delay : write_delay_table;
  write_cell_energy : float;
  p_leak_cell : float;
}

let max_address_bits = 14

let characterize_with ~disk ~lib ~cell_flavor =
  let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt in
  let driver = Gates.Superbuffer.default_wl_driver ~nfet ~pfet in
  let c_out = Gates.Superbuffer.input_cap driver in
  let dec = Gates.Decoder.characterize ~nfet ~pfet ~max_bits:max_address_bits ~c_out in
  let sa = Gates.Sense_amp.default ~nfet ~pfet in
  let vdd = Finfet.Tech.vdd_nominal in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib cell_flavor)
      ~pfet:(Finfet.Library.pfet lib cell_flavor)
  in
  let simulate vwl =
    let r = Sram_cell.Dynamics.write_delay ~cell (Sram_cell.Sram6t.write0 ~vwl ()) in
    if r.Sram_cell.Dynamics.flipped then r.Sram_cell.Dynamics.delay
    else 50e-12 (* failed writes are priced prohibitively, never optimal *)
  in
  let write_cell_delay =
    { delays = Array.init (Array.length vwl_grid) (fun _ -> Atomic.make None);
      simulate;
      disk =
        (if disk then Some (Finfet.Library.flavor_to_string cell_flavor) else None);
      lock = Mutex.create () }
  in
  let c_node = Sram_cell.Sram6t.storage_node_cap cell in
  { row_decoder = dec;
    col_decoder = dec;
    driver_delay = Gates.Superbuffer.first_stages_delay driver;
    driver_energy = Gates.Superbuffer.first_stages_energy driver ~vdd;
    sense_delay = Gates.Sense_amp.delay sa ~delta_v:Finfet.Tech.delta_v_sense;
    sense_energy = Gates.Sense_amp.energy sa ~vdd;
    write_cell_delay;
    write_cell_energy = 2.0 *. c_node *. vdd *. vdd;
    p_leak_cell = Sram_cell.Leakage.power ~cell ();
  }

let characterize ~lib ~cell_flavor () = characterize_with ~disk:false ~lib ~cell_flavor

let shared_cache : (Finfet.Library.flavor, t) Runtime.Memo.t =
  Runtime.Memo.create ~name:"periphery.characterize" ~capacity:8 ()

let shared ~cell_flavor =
  Runtime.Memo.find_or_compute shared_cache cell_flavor (fun () ->
      Obs.Histogram.span characterize_timer (fun () ->
          characterize_with ~disk:true ~lib:(Lazy.force Finfet.Library.default)
            ~cell_flavor))

let row_dec t ~bits =
  assert (bits >= 0 && bits < Array.length t.row_decoder);
  t.row_decoder.(bits)

let col_dec t ~bits =
  assert (bits >= 0 && bits < Array.length t.col_decoder);
  t.col_decoder.(bits)

let write_delay t ~vwl = Numerics.Interp.Table1d.eval_by vwl_grid (level t.write_cell_delay) vwl
