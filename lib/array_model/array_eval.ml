type accounting = Paper_strict | Physical

type env = {
  lib : Finfet.Library.t;
  cell_flavor : Finfet.Library.flavor;
  currents : Currents.t;
  periphery : Periphery.t;
  dcaps : Caps.device_caps;
  alpha : float;
  beta : float;
  dcdc_overhead : float;
  accounting : accounting;
}

let make_env ?(alpha = 0.5) ?(beta = 0.5) ?(dcdc_overhead = 1.25)
    ?(accounting = Paper_strict) ?(read_current_model = `Simulated)
    ?cell_width_factor ~cell_flavor () =
  let lib = Lazy.force Finfet.Library.default in
  let currents = Currents.create ~lib ~cell_flavor ~read_current_model in
  let periphery = Periphery.shared ~cell_flavor in
  let dcaps =
    Caps.device_caps_of ?cell_width_factor
      ~nfet:(Finfet.Library.nfet lib cell_flavor)
      ~pfet:(Finfet.Library.pfet lib cell_flavor)
      ()
  in
  { lib; cell_flavor; currents; periphery; dcaps; alpha; beta; dcdc_overhead;
    accounting }

type metrics = {
  d_read : float;
  d_write : float;
  d_array : float;
  e_read : float;
  e_write : float;
  e_switching : float;
  e_leakage : float;
  e_total : float;
  edp : float;
  d_bl_read : float;
  d_row_path_read : float;
  d_col_path : float;
}

let vdd = Finfet.Tech.vdd_nominal

let evaluate env (g : Geometry.t) (a : Components.assist) =
  let open Components in
  let d = env.dcaps and cur = env.currents and per = env.periphery in
  let cvdd = Components.cvdd d cur g a in
  let cvss = Components.cvss d cur g a in
  let wl_rd = Components.wl_read d cur g a in
  let wl_wr = Components.wl_write d cur g a in
  let col = Components.col d cur g a in
  let bl_rd = Components.bl_read d cur g a in
  let bl_wr = Components.bl_write d cur g a in
  let pre_rd = Components.precharge_read d cur g a in
  let pre_wr = Components.precharge_write d cur g a in
  let row_dec = Periphery.row_dec per ~bits:(Geometry.row_address_bits g) in
  let col_dec = Periphery.col_dec per ~bits:(Geometry.column_address_bits g) in
  (* --- Table 3: delays --- *)
  let d_row_path_read =
    row_dec.Gates.Decoder.delay +. per.Periphery.driver_delay +. wl_rd.delay
  in
  let d_col_path =
    if Geometry.has_column_mux g then
      col_dec.Gates.Decoder.delay +. per.Periphery.driver_delay +. col.delay
    else 0.0
  in
  let d_read =
    max (d_row_path_read +. bl_rd.delay) d_col_path
    +. per.Periphery.sense_delay +. pre_rd.delay
  in
  let d_write_cell = Periphery.write_delay per ~vwl:a.vwl in
  let d_row_path_write =
    row_dec.Gates.Decoder.delay +. per.Periphery.driver_delay +. wl_wr.delay
  in
  let d_write =
    max d_row_path_write (d_col_path +. bl_wr.delay)
    +. d_write_cell +. pre_wr.delay
  in
  let d_array = max d_read d_write in
  (* --- Table 3: switching energies --- *)
  let assist_scaled e = env.dcdc_overhead *. e in
  let e_cvdd = assist_scaled cvdd.energy in
  let e_cvss = assist_scaled cvss.energy in
  let e_wl_wr = if a.vwl > vdd then assist_scaled wl_wr.energy else wl_wr.energy in
  let nc = float_of_int g.Geometry.nc in
  (* A row narrower than the access width is read/written whole. *)
  let w = float_of_int (min g.Geometry.w g.Geometry.nc) in
  let n_unselected = max 0.0 (nc -. w) in
  let e_read, e_write =
    match env.accounting with
    | Paper_strict ->
      let e_read =
        row_dec.Gates.Decoder.energy +. per.Periphery.driver_energy
        +. wl_rd.energy +. bl_rd.energy +. col_dec.Gates.Decoder.energy
        +. per.Periphery.driver_energy +. col.energy
        +. per.Periphery.sense_energy +. pre_rd.energy +. e_cvdd +. e_cvss
      in
      let e_write =
        row_dec.Gates.Decoder.energy +. per.Periphery.driver_energy
        +. wl_wr.energy +. col_dec.Gates.Decoder.energy
        +. per.Periphery.driver_energy +. col.energy +. bl_wr.energy
        +. per.Periphery.write_cell_energy +. pre_wr.energy
      in
      (e_read, e_write)
    | Physical ->
      (* Every cell under the active word line conducts, so all n_c
         bitlines discharge and are re-precharged on a read; W sense amps
         evaluate.  A write swings W bitlines rail-to-rail and disturbs
         the other n_c - W columns by a read-like Delta V_S dip (priced at
         nominal rails: write operations carry no read assists). *)
      let c_bl = Caps.bl d g in
      let disturb = 2.0 *. c_bl *. vdd *. Finfet.Tech.delta_v_sense in
      let e_read =
        row_dec.Gates.Decoder.energy +. per.Periphery.driver_energy
        +. wl_rd.energy
        +. (nc *. (bl_rd.energy +. pre_rd.energy))
        +. col_dec.Gates.Decoder.energy +. per.Periphery.driver_energy
        +. col.energy
        +. (w *. per.Periphery.sense_energy)
        +. e_cvdd +. e_cvss
      in
      let e_write =
        row_dec.Gates.Decoder.energy +. per.Periphery.driver_energy
        +. e_wl_wr +. col_dec.Gates.Decoder.energy
        +. per.Periphery.driver_energy +. col.energy
        +. (w *. (bl_wr.energy +. per.Periphery.write_cell_energy +. pre_wr.energy))
        +. (n_unselected *. disturb)
      in
      (e_read, e_write)
  in
  (* --- Equations (2)-(5) --- *)
  let e_switching = (env.beta *. e_read) +. ((1.0 -. env.beta) *. e_write) in
  let m = float_of_int (Geometry.capacity_bits g) in
  let e_leakage = m *. per.Periphery.p_leak_cell *. d_array in
  let e_total = (env.alpha *. e_switching) +. e_leakage in
  { d_read; d_write; d_array;
    e_read; e_write; e_switching; e_leakage; e_total;
    edp = e_total *. d_array;
    d_bl_read = bl_rd.delay;
    d_row_path_read;
    d_col_path }

(* ----- attribution -----

   [attribute] re-prices the same Table 3 components [evaluate] does
   and lists each addend in the reference fold order instead of summing
   it away.  It deliberately duplicates the combining arithmetic above:
   folding the lists back (head-seeded, left-associated — see [refold])
   must reproduce every [metrics] field bit for bit, which the QCheck
   property suite asserts against [evaluate] so the two paths cannot
   drift apart silently.  Cold path only — it allocates lists and runs
   [evaluate] once for the reference record. *)

type attribution = {
  at_metrics : metrics;
  at_alpha : float;
  at_beta : float;
  at_read_energy : (string * float) list;
  at_write_energy : (string * float) list;
  at_read_row : (string * float) list;
  at_read_col : (string * float) list;
  at_read_tail : (string * float) list;
  at_write_row : (string * float) list;
  at_write_col : (string * float) list;
  at_write_tail : (string * float) list;
}

let refold = function
  | [] -> 0.0
  | (_, x) :: rest -> List.fold_left (fun acc (_, y) -> acc +. y) x rest

let attribute env (g : Geometry.t) (a : Components.assist) =
  let open Components in
  let d = env.dcaps and cur = env.currents and per = env.periphery in
  let cvdd = Components.cvdd d cur g a in
  let cvss = Components.cvss d cur g a in
  let wl_rd = Components.wl_read d cur g a in
  let wl_wr = Components.wl_write d cur g a in
  let col = Components.col d cur g a in
  let bl_rd = Components.bl_read d cur g a in
  let bl_wr = Components.bl_write d cur g a in
  let pre_rd = Components.precharge_read d cur g a in
  let pre_wr = Components.precharge_write d cur g a in
  let row_dec = Periphery.row_dec per ~bits:(Geometry.row_address_bits g) in
  let col_dec = Periphery.col_dec per ~bits:(Geometry.column_address_bits g) in
  let assist_scaled e = env.dcdc_overhead *. e in
  let e_cvdd = assist_scaled cvdd.energy in
  let e_cvss = assist_scaled cvss.energy in
  let e_wl_wr =
    if a.vwl > vdd then assist_scaled wl_wr.energy else wl_wr.energy
  in
  let nc = float_of_int g.Geometry.nc in
  let w = float_of_int (min g.Geometry.w g.Geometry.nc) in
  let n_unselected = max 0.0 (nc -. w) in
  let read_energy, write_energy =
    match env.accounting with
    | Paper_strict ->
      ( [ ("row decoder", row_dec.Gates.Decoder.energy);
          ("row driver", per.Periphery.driver_energy);
          ("wordline", wl_rd.energy);
          ("bitline", bl_rd.energy);
          ("col decoder", col_dec.Gates.Decoder.energy);
          ("col driver", per.Periphery.driver_energy);
          ("column mux", col.energy);
          ("sense amp", per.Periphery.sense_energy);
          ("precharge", pre_rd.energy);
          ("DC-DC V_DDC", e_cvdd);
          ("DC-DC V_SSC", e_cvss) ],
        [ ("row decoder", row_dec.Gates.Decoder.energy);
          ("row driver", per.Periphery.driver_energy);
          ("wordline", wl_wr.energy);
          ("col decoder", col_dec.Gates.Decoder.energy);
          ("col driver", per.Periphery.driver_energy);
          ("column mux", col.energy);
          ("bitline", bl_wr.energy);
          ("write cell", per.Periphery.write_cell_energy);
          ("precharge", pre_wr.energy) ] )
    | Physical ->
      let c_bl = Caps.bl d g in
      let disturb = 2.0 *. c_bl *. vdd *. Finfet.Tech.delta_v_sense in
      ( [ ("row decoder", row_dec.Gates.Decoder.energy);
          ("row driver", per.Periphery.driver_energy);
          ("wordline", wl_rd.energy);
          ("bitlines+precharge (all n_c)", nc *. (bl_rd.energy +. pre_rd.energy));
          ("col decoder", col_dec.Gates.Decoder.energy);
          ("col driver", per.Periphery.driver_energy);
          ("column mux", col.energy);
          ("sense amps (W)", w *. per.Periphery.sense_energy);
          ("DC-DC V_DDC", e_cvdd);
          ("DC-DC V_SSC", e_cvss) ],
        [ ("row decoder", row_dec.Gates.Decoder.energy);
          ("row driver", per.Periphery.driver_energy);
          ("wordline", e_wl_wr);
          ("col decoder", col_dec.Gates.Decoder.energy);
          ("col driver", per.Periphery.driver_energy);
          ("column mux", col.energy);
          ("write columns (W)",
           w *. (bl_wr.energy +. per.Periphery.write_cell_energy
                 +. pre_wr.energy));
          ("read disturb (n_c-W)", n_unselected *. disturb) ] )
  in
  let col_path_stages =
    if Geometry.has_column_mux g then
      [ ("col decoder", col_dec.Gates.Decoder.delay);
        ("col driver", per.Periphery.driver_delay);
        ("column mux", col.delay) ]
    else []
  in
  { at_metrics = evaluate env g a;
    at_alpha = env.alpha;
    at_beta = env.beta;
    at_read_energy = read_energy;
    at_write_energy = write_energy;
    at_read_row =
      [ ("row decoder", row_dec.Gates.Decoder.delay);
        ("row driver", per.Periphery.driver_delay);
        ("wordline", wl_rd.delay);
        ("bitline", bl_rd.delay) ];
    at_read_col = col_path_stages;
    at_read_tail =
      [ ("sense amp", per.Periphery.sense_delay);
        ("precharge", pre_rd.delay) ];
    at_write_row =
      [ ("row decoder", row_dec.Gates.Decoder.delay);
        ("row driver", per.Periphery.driver_delay);
        ("wordline", wl_wr.delay) ];
    at_write_col = col_path_stages @ [ ("bitline", bl_wr.delay) ];
    at_write_tail =
      [ ("write cell", Periphery.write_delay per ~vwl:a.vwl);
        ("precharge", pre_wr.delay) ] }

let attribution_consistent at =
  let m = at.at_metrics in
  let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let tail_fold seed stages =
    List.fold_left (fun acc (_, x) -> acc +. x) seed stages
  in
  let e_read = refold at.at_read_energy in
  let e_write = refold at.at_write_energy in
  let d_read =
    tail_fold (max (refold at.at_read_row) (refold at.at_read_col))
      at.at_read_tail
  in
  let d_write =
    tail_fold (max (refold at.at_write_row) (refold at.at_write_col))
      at.at_write_tail
  in
  let d_array = max d_read d_write in
  let e_switching =
    (at.at_beta *. e_read) +. ((1.0 -. at.at_beta) *. e_write)
  in
  let e_total = (at.at_alpha *. e_switching) +. m.e_leakage in
  bits_eq e_read m.e_read
  && bits_eq e_write m.e_write
  && bits_eq d_read m.d_read
  && bits_eq d_write m.d_write
  && bits_eq d_array m.d_array
  && bits_eq e_switching m.e_switching
  && bits_eq e_total m.e_total
  && bits_eq (e_total *. d_array) m.edp

(* ----- staged evaluation kernel -----

   [evaluate] recomputes, for every (geometry, assist) pair, work that
   depends on only one of the two coordinates: wire capacitances, decoder
   characterization and the assist-blind Table 2 components depend only
   on the geometry, while the assist-rail drive currents and the write
   cell delay depend only on the assist.  The kernel hoists both sides:
   [stage] captures everything geometry-determined, [prepare] everything
   assist-determined, and [complete] finishes the cross terms — a few
   dozen float operations, no table lookups, no memo locks.

   Bit-identity with [evaluate] is by construction: every hoisted leaf is
   produced by the same expression (often the same function) as the
   reference path, and [complete] re-runs the combining arithmetic in the
   reference path's exact association order. *)

let stage_counter = Runtime.Telemetry.counter "array_eval.stage"

(* Latency distributions of the two kernel stages, sampled so the ~60 ns
   clock reads stay invisible next to the ~100 ns [complete] hot path
   (the [tick] fast path is one atomic load when observability is off). *)
let stage_hist = Obs.Histogram.create ~sample:64 "array_eval.stage"
let eval_hist = Obs.Histogram.create ~sample:128 "array_eval.eval_staged"

(* The staged constants live in an all-float record: OCaml stores those
   flat (one unboxed float per field), whereas a mixed record would box
   every float field individually — ~20 extra minor allocations per
   staged geometry, which dominated staging cost on the full sweep.
   Assist-blind components are stored pre-folded (the fold runs the
   reference association order once at staging), so the record carries
   only the values [complete_parts]/[scan_slice] actually read. *)
type staged_k = {
  (* Equation (1) C operands that depend on the geometry *)
  c_cvdd : float;
  c_cvss : float;
  c_wl : float;
  c_bl : float;
  (* pre-folded delay prefixes (reference association order) *)
  d_row_prefix : float;      (* row_dec + driver *)
  st_d_row_path_read : float;(* d_row_prefix + wl_rd.delay *)
  st_d_col_path : float;
  d_col_blwr : float;        (* d_col_path + bl_wr.delay *)
  pre_rd_delay : float;
  pre_wr_delay : float;
  (* pre-folded energy prefixes and per-component energies *)
  e_rowdrv : float;          (* row_dec.energy + driver_energy *)
  e_rd_prefix : float;       (* e_rowdrv + wl_rd.energy *)
  col_dec_e : float;
  col_e : float;
  bl_wr_e : float;
  pre_rd_e : float;
  pre_wr_e : float;
  (* Physical-accounting geometry terms *)
  nc_f : float;
  w_sense_energy : float;    (* w * sense_energy *)
  w_write_term : float;      (* w * (bl_wr.e + write_cell_e + pre_wr.e) *)
  disturb_term : float;      (* n_unselected * disturb *)
  (* leakage slope: M * P_leak,cell *)
  mp_leak : float;
}

type staged = {
  st_env : env;
  st_geometry : Geometry.t;
  st_k : staged_k;
}

(* ----- staging context: hoisted currents and the two staging caches -----

   The assist-blind components' drive currents are env constants:
   [Currents.wl_read]/[col_driver] don't depend on the geometry at all,
   and [bl_write]/[precharge] only through the small integers
   n_wr/n_pre — yet each call re-evaluates the FinFET device model.  A
   context hoists them once per environment (the per-n_wr/n_pre draws
   eagerly, via the exact [Currents] functions, so staged records built
   from a context are bit-identical to the direct path's).

   A context also owns the only two staging caches, under one mutex:
   - its last [stage_array_cap] staged grids, found by the identity of
     the grid array: the exhaustive searches of one memoized grid (both
     methods of a Table 4 capacity, served queries differing only in
     V_SSC) stage it once;
   - a bounded table of single staged geometries for [stage], whose
     callers ({!Opt.Line_cache}) revisit geometries across searches.
   Exhaustive searches look a grid up once per search, and the
   heuristics look up a few hundred geometries per search, so the lock
   is never on a per-candidate path.  Two domains that miss together
   stage the same records twice; staging is deterministic, so the
   copies are bit-identical. *)

(* Fields of [staged] that depend on the geometry only through
   (nr, nc, w): wire caps, decoders, the WL read component and every
   prefix folded from them.  A grid enumerates (N_pre, N_wr) inside each
   n_r, so [stage_array] computes one row core per n_r and the rest of
   each record is a handful of [equation1] applications. *)
type row_core = {
  rc_c_cvdd : float;
  rc_c_cvss : float;
  rc_c_wl : float;
  rc_d_row_prefix : float;
  rc_d_row_path_read : float;
  rc_col_dec_delay : float;
  rc_col_dec_e : float;
  rc_e_rowdrv : float;
  rc_e_rd_prefix : float;
  rc_nc_f : float;
  rc_w_f : float;
  rc_w_sense_energy : float;
  rc_n_unselected : float;
  rc_mp_leak : float;
}

type ctx = {
  x_env : env;
  x_i_wl_read : float;          (* Currents.wl_read *)
  x_i_col : float;              (* Currents.col_driver *)
  x_i_bl_write : float array;   (* Currents.bl_write, indexed by n_wr *)
  x_i_precharge : float array;  (* Currents.precharge, indexed by n_pre *)
  x_lock : Mutex.t;             (* guards the two caches below *)
  x_staged : (Geometry.t, staged) Hashtbl.t;
  mutable x_grids : (Geometry.t array * staged array) list;  (* newest first *)
}

let ctx_current_slots = 128
let ctx_cache_cap = 65536
let stage_array_cap = 4

let make_ctx env =
  let cur = env.currents in
  { x_env = env;
    x_i_wl_read = Currents.wl_read cur;
    x_i_col = Currents.col_driver cur;
    x_i_bl_write =
      Array.init ctx_current_slots (fun n_wr -> Currents.bl_write cur ~n_wr);
    x_i_precharge =
      Array.init ctx_current_slots (fun n_pre -> Currents.precharge cur ~n_pre);
    x_lock = Mutex.create ();
    x_staged = Hashtbl.create 1024;
    x_grids = [] }

let ctx_env ctx = ctx.x_env

let row_core_of ctx (g : Geometry.t) =
  let env = ctx.x_env in
  let d = env.dcaps and per = env.periphery in
  let wl_rd =
    Components.equation1 ~c:(Caps.wl d g) ~v:vdd ~dv:vdd ~i:ctx.x_i_wl_read
  in
  let row_dec = Periphery.row_dec per ~bits:(Geometry.row_address_bits g) in
  let col_dec = Periphery.col_dec per ~bits:(Geometry.column_address_bits g) in
  let d_row_prefix = row_dec.Gates.Decoder.delay +. per.Periphery.driver_delay in
  let nc = float_of_int g.Geometry.nc in
  let w = float_of_int (min g.Geometry.w g.Geometry.nc) in
  let e_rowdrv = row_dec.Gates.Decoder.energy +. per.Periphery.driver_energy in
  { rc_c_cvdd = Caps.cvdd d g;
    rc_c_cvss = Caps.cvss d g;
    rc_c_wl = Caps.wl d g;
    rc_d_row_prefix = d_row_prefix;
    rc_d_row_path_read = d_row_prefix +. wl_rd.Components.delay;
    rc_col_dec_delay = col_dec.Gates.Decoder.delay;
    rc_col_dec_e = col_dec.Gates.Decoder.energy;
    rc_e_rowdrv = e_rowdrv;
    rc_e_rd_prefix = e_rowdrv +. wl_rd.Components.energy;
    rc_nc_f = nc;
    rc_w_f = w;
    rc_w_sense_energy = w *. per.Periphery.sense_energy;
    rc_n_unselected = max 0.0 (nc -. w);
    rc_mp_leak =
      float_of_int (Geometry.capacity_bits g) *. per.Periphery.p_leak_cell }

let stage_residue ctx rc (g : Geometry.t) =
  Runtime.Telemetry.incr stage_counter;
  let env = ctx.x_env in
  let d = env.dcaps and cur = env.currents and per = env.periphery in
  (* The (n_pre, n_wr) residue: each [equation1] application expands to
     the same expression the corresponding [Components] constructor
     evaluates (the QCheck bit-identity property pins this down against
     [evaluate]). *)
  let c_bl = Caps.bl d g in
  let n_wr = g.Geometry.n_wr and n_pre = g.Geometry.n_pre in
  let i_bl_wr =
    if n_wr < ctx_current_slots then Array.unsafe_get ctx.x_i_bl_write n_wr
    else Currents.bl_write cur ~n_wr
  in
  let i_pre =
    if n_pre < ctx_current_slots then Array.unsafe_get ctx.x_i_precharge n_pre
    else Currents.precharge cur ~n_pre
  in
  let col =
    if not (Geometry.has_column_mux g) then
      { Components.delay = 0.0; energy = 0.0 }
    else Components.equation1 ~c:(Caps.col d g) ~v:vdd ~dv:vdd ~i:ctx.x_i_col
  in
  let bl_wr = Components.equation1 ~c:c_bl ~v:vdd ~dv:vdd ~i:i_bl_wr in
  let pre_rd =
    Components.equation1 ~c:c_bl ~v:vdd ~dv:Finfet.Tech.delta_v_sense ~i:i_pre
  in
  let pre_wr = Components.equation1 ~c:c_bl ~v:vdd ~dv:vdd ~i:i_pre in
  let d_col_path =
    if Geometry.has_column_mux g then
      rc.rc_col_dec_delay +. per.Periphery.driver_delay
      +. col.Components.delay
    else 0.0
  in
  let disturb = 2.0 *. c_bl *. vdd *. Finfet.Tech.delta_v_sense in
  { st_env = env;
    st_geometry = g;
    st_k =
      { c_cvdd = rc.rc_c_cvdd;
        c_cvss = rc.rc_c_cvss;
        c_wl = rc.rc_c_wl;
        c_bl;
        d_row_prefix = rc.rc_d_row_prefix;
        st_d_row_path_read = rc.rc_d_row_path_read;
        st_d_col_path = d_col_path;
        d_col_blwr = d_col_path +. bl_wr.Components.delay;
        pre_rd_delay = pre_rd.Components.delay;
        pre_wr_delay = pre_wr.Components.delay;
        e_rowdrv = rc.rc_e_rowdrv;
        e_rd_prefix = rc.rc_e_rd_prefix;
        col_dec_e = rc.rc_col_dec_e;
        col_e = col.Components.energy;
        bl_wr_e = bl_wr.Components.energy;
        pre_rd_e = pre_rd.Components.energy;
        pre_wr_e = pre_wr.Components.energy;
        nc_f = rc.rc_nc_f;
        w_sense_energy = rc.rc_w_sense_energy;
        w_write_term =
          rc.rc_w_f
          *. (bl_wr.Components.energy +. per.Periphery.write_cell_energy
              +. pre_wr.Components.energy);
        disturb_term = rc.rc_n_unselected *. disturb;
        mp_leak = rc.rc_mp_leak } }

(* A single geometry: its own row core, then the residue.  The table is
   bounded first-come, so a long-lived server cannot grow it without
   limit. *)
let stage_cached ctx (g : Geometry.t) =
  match Mutex.protect ctx.x_lock (fun () -> Hashtbl.find_opt ctx.x_staged g) with
  | Some st -> st
  | None ->
    let st = stage_residue ctx (row_core_of ctx g) g in
    Mutex.protect ctx.x_lock (fun () ->
        if Hashtbl.length ctx.x_staged < ctx_cache_cap then
          Hashtbl.replace ctx.x_staged g st);
    st

let stage_with ctx g =
  if Obs.Histogram.tick stage_hist then begin
    let g0 = Obs.Histogram.major_collections () in
    let t0 = Obs.Clock.now () in
    let st = stage_cached ctx g in
    let dt = Obs.Clock.now () -. t0 in
    Obs.Histogram.observe_gc stage_hist dt
      (Obs.Histogram.major_collections () - g0);
    st
  end
  else stage_cached ctx g

let stage_array ctx (gs : Geometry.t array) =
  match Mutex.protect ctx.x_lock (fun () -> List.assq_opt gs ctx.x_grids) with
  | Some arr -> arr
  | None ->
    (* Each element reuses the previous element's row core when their
       (n_r, n_c, W) agree, which in an n_r-major grid is all but one
       element per n_r. *)
    let prev = ref None in
    let stage1 (g : Geometry.t) =
      let rc =
        match !prev with
        | Some ((p : Geometry.t), rc)
          when p.nr = g.nr && p.nc = g.nc && p.w = g.w -> rc
        | _ ->
          let rc = row_core_of ctx g in
          prev := Some (g, rc);
          rc
      in
      stage_residue ctx rc g
    in
    let arr = Array.map stage1 gs in
    Mutex.protect ctx.x_lock (fun () ->
        ctx.x_grids <-
          (gs, arr)
          :: List.filteri (fun i _ -> i < stage_array_cap - 1) ctx.x_grids);
    arr

(* Contexts are registered per environment value (physical equality:
   environments are built once and shared — the framework memoizes
   them per (flavor, accounting)), newest-first with a small LRU-ish
   cap so ad-hoc test environments cannot pin memory forever. *)
let ctx_registry_cap = 8
let ctx_registry_lock = Mutex.create ()
let ctx_registry : (env * ctx) list ref = ref []

let ctx_for env =
  Mutex.lock ctx_registry_lock;
  match List.find_opt (fun (e, _) -> e == env) !ctx_registry with
  | Some (_, c) ->
    Mutex.unlock ctx_registry_lock;
    c
  | None ->
    let c = make_ctx env in
    ctx_registry :=
      (env, c) :: List.filteri (fun i _ -> i < ctx_registry_cap - 1)
                    !ctx_registry;
    Mutex.unlock ctx_registry_lock;
    c

(* The registered contexts own every cache, so dropping them drops
   every staged record. *)
let reset_staging () =
  Mutex.protect ctx_registry_lock (fun () -> ctx_registry := [])

let stage env g = stage_with (ctx_for env) g

type prepared = {
  p_assist : Components.assist;
  dv_cvdd : float;
  i_cvdd : float;
  dv_cvss : float;
  i_cvss : float;
  dv_wl_wr : float;
  i_wl_wr : float;
  v_bl_rd : float;
  i_bl_rd : float;
  p_d_write_cell : float;
  wl_boosted : bool;
  (* Scan-effective operands, derived once at preparation time so the
     batched scan loop is branch-free (without flambda a float produced
     by an if-join is boxed, which would put an allocation on every
     scan point).  A dead component carries a 0.0 numerator and a 1.0
     divisor, which reproduce the reference path's exact 0.0 through
     the same multiplications — the operand substitution is validated
     bit-for-bit by the scan-identity QCheck property. *)
  ps_dv_cvdd : float;
  ps_dv_cvss : float;
  ps_dv_wl : float;
  ps_i_wl : float;
  ps_i_bl : float;
  ps_v_bl : float;
  ps_boost : float;  (* dcdc_overhead when vwl-boosted, else 1.0 *)
}

(* The input validation [Components.equation1] performs per evaluation
   moves here, to preparation time: each assert guards exactly the
   operand set whose component is live, as the per-point branches did. *)
let make_prepared ~assist ~dv_cvdd ~i_cvdd ~dv_cvss ~i_cvss ~dv_wl_wr ~i_wl_wr
    ~v_bl_rd ~i_bl_rd ~d_write_cell ~wl_boosted ~dcdc =
  let bl_live = Finfet.Tech.delta_v_sense > 0.0 in
  { p_assist = assist;
    dv_cvdd;
    i_cvdd;
    dv_cvss;
    i_cvss;
    dv_wl_wr;
    i_wl_wr;
    v_bl_rd;
    i_bl_rd;
    p_d_write_cell = d_write_cell;
    wl_boosted;
    ps_dv_cvdd =
      (if dv_cvdd <= 0.0 then 0.0
       else begin assert (i_cvdd > 0.0); dv_cvdd end);
    ps_dv_cvss =
      (if dv_cvss <= 0.0 then 0.0
       else begin assert (i_cvss > 0.0); dv_cvss end);
    ps_dv_wl =
      (if dv_wl_wr > 0.0 then begin assert (i_wl_wr > 0.0); dv_wl_wr end
       else 0.0);
    ps_i_wl = (if dv_wl_wr > 0.0 then i_wl_wr else 1.0);
    ps_i_bl =
      (if bl_live then begin assert (i_bl_rd > 0.0); i_bl_rd end else 1.0);
    ps_v_bl = (if bl_live then v_bl_rd else 0.0);
    ps_boost = (if wl_boosted then dcdc else 1.0) }

let prepare env (a : Components.assist) =
  let cur = env.currents and per = env.periphery in
  make_prepared ~assist:a
    ~dv_cvdd:(a.Components.vddc -. vdd)
    ~i_cvdd:(Currents.cvdd_driver cur ~vddc:a.Components.vddc)
    ~dv_cvss:(abs_float a.Components.vssc)
    ~i_cvss:(Currents.cvss_driver cur ~vssc:a.Components.vssc)
    ~dv_wl_wr:a.Components.vwl
    ~i_wl_wr:(Currents.wl_write cur ~vwl:a.Components.vwl)
    ~v_bl_rd:(a.Components.vddc -. a.Components.vssc)
    ~i_bl_rd:
      (Currents.read_current cur ~vddc:a.Components.vddc
         ~vssc:a.Components.vssc)
    ~d_write_cell:(Periphery.write_delay per ~vwl:a.Components.vwl)
    ~wl_boosted:(a.Components.vwl > vdd)
    ~dcdc:env.dcdc_overhead

(* The shared completion: prices the four assist-dependent components from
   hoisted operands and re-runs the Table 3 / Equations (2)-(5) arithmetic
   in [evaluate]'s association order.  [e_wl_scale] abstracts the one
   conditional that differs between an actual assist (vwl > vdd) and the
   lower envelope (all enveloped assists boosted). *)
let complete_parts st ~dv_cvdd ~i_cvdd ~dv_cvss ~i_cvss ~dv_wl_wr ~i_wl_wr
    ~v_bl_rd ~i_bl_rd ~d_write_cell ~wl_boosted =
  let env = st.st_env in
  let per = env.periphery in
  let k = st.st_k in
  let cvdd = Components.equation1 ~c:k.c_cvdd ~v:vdd ~dv:dv_cvdd ~i:i_cvdd in
  let cvss = Components.equation1 ~c:k.c_cvss ~v:vdd ~dv:dv_cvss ~i:i_cvss in
  let wl_wr = Components.equation1 ~c:k.c_wl ~v:vdd ~dv:dv_wl_wr ~i:i_wl_wr in
  let bl_rd =
    Components.equation1 ~c:k.c_bl ~v:v_bl_rd ~dv:Finfet.Tech.delta_v_sense
      ~i:i_bl_rd
  in
  (* --- Table 3: delays --- *)
  let d_row_path_read = k.st_d_row_path_read in
  let d_col_path = k.st_d_col_path in
  let d_read =
    max (d_row_path_read +. bl_rd.Components.delay) d_col_path
    +. per.Periphery.sense_delay +. k.pre_rd_delay
  in
  let d_row_path_write = k.d_row_prefix +. wl_wr.Components.delay in
  let d_write =
    max d_row_path_write k.d_col_blwr
    +. d_write_cell +. k.pre_wr_delay
  in
  let d_array = max d_read d_write in
  (* --- Table 3: switching energies --- *)
  let assist_scaled e = env.dcdc_overhead *. e in
  let e_cvdd = assist_scaled cvdd.Components.energy in
  let e_cvss = assist_scaled cvss.Components.energy in
  let e_wl_wr =
    if wl_boosted then assist_scaled wl_wr.Components.energy
    else wl_wr.Components.energy
  in
  let e_read, e_write =
    match env.accounting with
    | Paper_strict ->
      let e_read =
        k.e_rd_prefix +. bl_rd.Components.energy
        +. k.col_dec_e +. per.Periphery.driver_energy
        +. k.col_e +. per.Periphery.sense_energy
        +. k.pre_rd_e +. e_cvdd +. e_cvss
      in
      let e_write =
        k.e_rowdrv +. wl_wr.Components.energy
        +. k.col_dec_e +. per.Periphery.driver_energy
        +. k.col_e +. k.bl_wr_e
        +. per.Periphery.write_cell_energy +. k.pre_wr_e
      in
      (e_read, e_write)
    | Physical ->
      let e_read =
        k.e_rd_prefix
        +. (k.nc_f *. (bl_rd.Components.energy +. k.pre_rd_e))
        +. k.col_dec_e +. per.Periphery.driver_energy
        +. k.col_e +. k.w_sense_energy +. e_cvdd
        +. e_cvss
      in
      let e_write =
        k.e_rowdrv +. e_wl_wr +. k.col_dec_e
        +. per.Periphery.driver_energy +. k.col_e
        +. k.w_write_term +. k.disturb_term
      in
      (e_read, e_write)
  in
  (* --- Equations (2)-(5) --- *)
  let e_switching = (env.beta *. e_read) +. ((1.0 -. env.beta) *. e_write) in
  let e_leakage = k.mp_leak *. d_array in
  let e_total = (env.alpha *. e_switching) +. e_leakage in
  { d_read; d_write; d_array;
    e_read; e_write; e_switching; e_leakage; e_total;
    edp = e_total *. d_array;
    d_bl_read = bl_rd.Components.delay;
    d_row_path_read;
    d_col_path }

let complete_core st (p : prepared) =
  complete_parts st ~dv_cvdd:p.dv_cvdd ~i_cvdd:p.i_cvdd ~dv_cvss:p.dv_cvss
    ~i_cvss:p.i_cvss ~dv_wl_wr:p.dv_wl_wr ~i_wl_wr:p.i_wl_wr
    ~v_bl_rd:p.v_bl_rd ~i_bl_rd:p.i_bl_rd ~d_write_cell:p.p_d_write_cell
    ~wl_boosted:p.wl_boosted

let complete st (p : prepared) =
  if Obs.Histogram.tick eval_hist then begin
    let g0 = Obs.Histogram.major_collections () in
    let t0 = Obs.Clock.now () in
    let m = complete_core st p in
    let dt = Obs.Clock.now () -. t0 in
    Obs.Histogram.observe_gc eval_hist dt
      (Obs.Histogram.major_collections () - g0);
    m
  end
  else complete_core st p

(* ----- admissible lower envelope -----

   Across a vssc scan only four components move.  Taking, per Equation (1)
   operand, the extreme that minimizes the component (smallest dV and V,
   largest I) yields component values that lower-bound the component at
   every enveloped assist; since every combining operation in
   [complete_parts] (+., *., /., max, all on non-negative operands) is
   monotone under IEEE rounding, the resulting metrics lower-bound every
   actual metrics field — no epsilon needed.  The envelope's fields are
   per-field bounds; they are generally not attained by any single
   assist. *)

type envelope = {
  b_dv_cvdd : float;
  b_i_cvdd : float;
  b_dv_cvss : float;
  b_i_cvss : float;
  b_dv_wl_wr : float;
  b_i_wl_wr : float;
  b_v_bl_rd : float;
  b_i_bl_rd : float;
  b_d_write_cell : float;
  b_wl_boosted_all : bool;
}

let staged_geometry st = st.st_geometry

(* ----- batched scan kernel -----

   One geometry's whole assist scan into preallocated float arrays
   (structure-of-arrays), with zero per-candidate allocation: every
   temporary in the loop bodies below is a local float (unboxed by the
   native compiler), the outputs land in flat [float array]s, and the
   [metrics] record is never built — the caller materializes it with
   [complete] for the one winning index.

   Bit-identity with [complete] is load-bearing and preserved by
   construction: the loop bodies re-run [complete_parts]' arithmetic in
   the reference association order, and the only hoisted computations
   are (a) loads of loop-invariant operands and (b) *whole
   subexpressions* of the reference arithmetic — [st.c_cvdd *. vdd],
   [1.0 -. beta], [d_col_path +. bl_wr.delay], ... — whose lifting
   cannot re-associate anything.  The two accounting modes get separate
   loops so the hot path carries no per-point match. *)

type scan_buffer = {
  mutable sb_len : int;
  mutable sb_e_total : float array;
  mutable sb_d_array : float array;
  mutable sb_edp : float array;
}

let scan_buffer () =
  { sb_len = 0;
    sb_e_total = Array.make 64 0.0;
    sb_d_array = Array.make 64 0.0;
    sb_edp = Array.make 64 0.0 }

let scan_e_total b = b.sb_e_total
let scan_d_array b = b.sb_d_array
let scan_edp b = b.sb_edp

let ensure_capacity buf n =
  if Array.length buf.sb_e_total < n then begin
    let cap = max n (2 * Array.length buf.sb_e_total) in
    buf.sb_e_total <- Array.make cap 0.0;
    buf.sb_d_array <- Array.make cap 0.0;
    buf.sb_edp <- Array.make cap 0.0
  end

let scan_slice st (ps : prepared array) buf ~lo ~hi =
  if lo < 0 || hi < lo || hi > Array.length ps then
    invalid_arg "Array_eval.scan_slice: bad range";
  ensure_capacity buf hi;
  buf.sb_len <- hi;
  let env = st.st_env in
  let per = env.periphery in
  let k = st.st_k in
  (* Loop-invariant operands and whole-subexpression hoists. *)
  let dvs = Finfet.Tech.delta_v_sense in
  let bl_live = dvs > 0.0 in
  let cv_cvdd = k.c_cvdd *. vdd in
  let cv_cvss = k.c_cvss *. vdd in
  let cv_wl = k.c_wl *. vdd in
  let c_wl = k.c_wl in
  let c_bl = k.c_bl in
  let c_bl_dvs = if bl_live then k.c_bl *. dvs else 0.0 in
  let dcdc = env.dcdc_overhead in
  let d_row_path_read = k.st_d_row_path_read in
  let d_col_path = k.st_d_col_path in
  let d_row_prefix = k.d_row_prefix in
  let sense_delay = per.Periphery.sense_delay in
  let pre_rd_delay = k.pre_rd_delay in
  let pre_wr_delay = k.pre_wr_delay in
  let d_col_blwr = k.d_col_blwr in
  let col_dec_e = k.col_dec_e in
  let driver_e = per.Periphery.driver_energy in
  let col_e = k.col_e in
  let sense_e = per.Periphery.sense_energy in
  let pre_rd_e = k.pre_rd_e in
  let pre_wr_e = k.pre_wr_e in
  let bl_wr_e = k.bl_wr_e in
  let write_cell_e = per.Periphery.write_cell_energy in
  let e_rd_prefix = k.e_rd_prefix in
  let e_rowdrv = k.e_rowdrv in
  let nc_f = k.nc_f in
  let w_sense_energy = k.w_sense_energy in
  let w_write_term = k.w_write_term in
  let disturb_term = k.disturb_term in
  let alpha = env.alpha and beta = env.beta in
  let one_minus_beta = 1.0 -. env.beta in
  let mp_leak = k.mp_leak in
  let out_e = buf.sb_e_total
  and out_d = buf.sb_d_array
  and out_edp = buf.sb_edp in
  match env.accounting with
  | Paper_strict ->
    for i = lo to hi - 1 do
      let p = Array.unsafe_get ps i in
      (* Equation (1) components; only the fields the outputs reach are
         computed (cvdd/cvss delays feed nothing).  The loop body is
         branch-free: a dead component's scan-effective operands (0.0
         numerator, 1.0 divisor, set by [make_prepared]) reproduce the
         reference path's 0.0 through these same multiplications, so no
         float is produced by an if-join — without flambda such a join
         boxes, which would allocate on every point. *)
      let e_cvdd_c = cv_cvdd *. p.ps_dv_cvdd in
      let e_cvss_c = cv_cvss *. p.ps_dv_cvss in
      let d_wl_wr = c_wl *. p.ps_dv_wl /. p.ps_i_wl in
      let e_wl_wr_c = cv_wl *. p.ps_dv_wl in
      let d_bl_rd = c_bl_dvs /. p.ps_i_bl in
      let e_bl_rd = c_bl *. p.ps_v_bl *. dvs in
      (* Table 3 delays, then strict-accounting energies.  The maxes are
         spelled as float comparisons because the polymorphic [max]
         boxes both arguments per call — selection is identical
         ([if a >= b then a else b] is [Stdlib.max] at float type). *)
      let rd_row = d_row_path_read +. d_bl_rd in
      let d_read =
        (if rd_row >= d_col_path then rd_row else d_col_path)
        +. sense_delay +. pre_rd_delay
      in
      let wr_row = d_row_prefix +. d_wl_wr in
      let d_write =
        (if wr_row >= d_col_blwr then wr_row else d_col_blwr)
        +. p.p_d_write_cell +. pre_wr_delay
      in
      let d_array = if d_read >= d_write then d_read else d_write in
      let e_cvdd = dcdc *. e_cvdd_c in
      let e_cvss = dcdc *. e_cvss_c in
      let e_read =
        e_rd_prefix +. e_bl_rd +. col_dec_e +. driver_e +. col_e
        +. sense_e +. pre_rd_e +. e_cvdd +. e_cvss
      in
      let e_write =
        e_rowdrv +. e_wl_wr_c +. col_dec_e +. driver_e +. col_e
        +. bl_wr_e +. write_cell_e +. pre_wr_e
      in
      let e_switching = (beta *. e_read) +. (one_minus_beta *. e_write) in
      let e_leakage = mp_leak *. d_array in
      let e_total = (alpha *. e_switching) +. e_leakage in
      Array.unsafe_set out_d i d_array;
      Array.unsafe_set out_e i e_total;
      Array.unsafe_set out_edp i (e_total *. d_array)
    done
  | Physical ->
    for i = lo to hi - 1 do
      let p = Array.unsafe_get ps i in
      (* Branch-free for the same reason as the strict loop above. *)
      let e_cvdd_c = cv_cvdd *. p.ps_dv_cvdd in
      let e_cvss_c = cv_cvss *. p.ps_dv_cvss in
      let d_wl_wr = c_wl *. p.ps_dv_wl /. p.ps_i_wl in
      let e_wl_wr_c = cv_wl *. p.ps_dv_wl in
      let d_bl_rd = c_bl_dvs /. p.ps_i_bl in
      let e_bl_rd = c_bl *. p.ps_v_bl *. dvs in
      let rd_row = d_row_path_read +. d_bl_rd in
      let d_read =
        (if rd_row >= d_col_path then rd_row else d_col_path)
        +. sense_delay +. pre_rd_delay
      in
      let wr_row = d_row_prefix +. d_wl_wr in
      let d_write =
        (if wr_row >= d_col_blwr then wr_row else d_col_blwr)
        +. p.p_d_write_cell +. pre_wr_delay
      in
      let d_array = if d_read >= d_write then d_read else d_write in
      let e_cvdd = dcdc *. e_cvdd_c in
      let e_cvss = dcdc *. e_cvss_c in
      let e_wl_wr = p.ps_boost *. e_wl_wr_c in
      let e_read =
        e_rd_prefix
        +. (nc_f *. (e_bl_rd +. pre_rd_e))
        +. col_dec_e +. driver_e +. col_e +. w_sense_energy +. e_cvdd
        +. e_cvss
      in
      let e_write =
        e_rowdrv +. e_wl_wr +. col_dec_e +. driver_e +. col_e
        +. w_write_term +. disturb_term
      in
      let e_switching = (beta *. e_read) +. (one_minus_beta *. e_write) in
      let e_leakage = mp_leak *. d_array in
      let e_total = (alpha *. e_switching) +. e_leakage in
      Array.unsafe_set out_d i d_array;
      Array.unsafe_set out_e i e_total;
      Array.unsafe_set out_edp i (e_total *. d_array)
    done

let scan st ps buf = scan_slice st ps buf ~lo:0 ~hi:(Array.length ps)

(* ----- envelopes as scan points -----

   An envelope is operand-for-operand a [prepared] value, so bounds are
   evaluated by the same allocation-free scan as real assists: build
   the bound points once per search, scan them once per geometry.  A
   mixed-boost envelope must use the smaller of the two possible
   scalings for the WL-overdrive write energy; 1.0 *. e = e exactly, so
   the all-boosted case reproduces [complete]'s scaled value. *)

let bound_prepared env (b : envelope) =
  make_prepared ~assist:Components.no_assist
    ~dv_cvdd:b.b_dv_cvdd
    ~i_cvdd:b.b_i_cvdd
    ~dv_cvss:b.b_dv_cvss
    ~i_cvss:b.b_i_cvss
    ~dv_wl_wr:b.b_dv_wl_wr
    ~i_wl_wr:b.b_i_wl_wr
    ~v_bl_rd:b.b_v_bl_rd
    ~i_bl_rd:b.b_i_bl_rd
    ~d_write_cell:b.b_d_write_cell
    ~wl_boosted:(b.b_wl_boosted_all || env.dcdc_overhead < 1.0)
    ~dcdc:env.dcdc_overhead

let envelope_of_point (p : prepared) =
  { b_dv_cvdd = p.dv_cvdd;
    b_i_cvdd = p.i_cvdd;
    b_dv_cvss = p.dv_cvss;
    b_i_cvss = p.i_cvss;
    b_dv_wl_wr = p.dv_wl_wr;
    b_i_wl_wr = p.i_wl_wr;
    b_v_bl_rd = p.v_bl_rd;
    b_i_bl_rd = p.i_bl_rd;
    b_d_write_cell = p.p_d_write_cell;
    b_wl_boosted_all = p.wl_boosted }

let extend_envelope acc (p : prepared) =
  { b_dv_cvdd = min acc.b_dv_cvdd p.dv_cvdd;
    b_i_cvdd = max acc.b_i_cvdd p.i_cvdd;
    b_dv_cvss = min acc.b_dv_cvss p.dv_cvss;
    b_i_cvss = max acc.b_i_cvss p.i_cvss;
    b_dv_wl_wr = min acc.b_dv_wl_wr p.dv_wl_wr;
    b_i_wl_wr = max acc.b_i_wl_wr p.i_wl_wr;
    b_v_bl_rd = min acc.b_v_bl_rd p.v_bl_rd;
    b_i_bl_rd = max acc.b_i_bl_rd p.i_bl_rd;
    b_d_write_cell = min acc.b_d_write_cell p.p_d_write_cell;
    b_wl_boosted_all = acc.b_wl_boosted_all && p.wl_boosted }

(* Suffix envelopes by one incremental right-to-left fold: element [j]
   covers every assist from index [j * block] to the end, so element 0
   is the whole-scan bound and element [j > 0] bounds what remains
   after [j] blocks have been evaluated — the handle a search needs to
   abandon a scan mid-line once the incumbent has tightened below the
   remaining points' admissible bound. *)
let suffix_envelopes (ps : prepared array) ~block =
  let n = Array.length ps in
  if n = 0 then invalid_arg "Array_eval.suffix_envelopes: empty";
  if block <= 0 then invalid_arg "Array_eval.suffix_envelopes: block <= 0";
  let nb = (n + block - 1) / block in
  let out = Array.make nb (envelope_of_point ps.(n - 1)) in
  let acc = ref (envelope_of_point ps.(n - 1)) in
  for i = n - 2 downto 0 do
    acc := extend_envelope !acc ps.(i);
    if i mod block = 0 then out.(i / block) <- !acc
  done;
  (* The last block's boundary may fall past n-2 (e.g. a single-point
     tail); seed wrote the n-1 point, fix up any boundary >= n-1. *)
  let last_boundary = (nb - 1) * block in
  if last_boundary = n - 1 then out.(nb - 1) <- envelope_of_point ps.(n - 1);
  out
