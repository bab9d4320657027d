(** Reproduction drivers for every figure and table of the paper's
    evaluation.  Each experiment returns structured data; the [print_*]
    companions render the same rows the paper reports (see EXPERIMENTS.md
    for paper-vs-measured commentary). *)

(** {1 Figure 2 — HSNM and leakage versus supply voltage} *)

type voltage_point = {
  vdd : float;
  lvt : float;
  hvt : float;
}

val fig2a_hsnm : ?vdds:float array -> unit -> voltage_point array
(** Hold SNM of both flavors across the supply sweep (values in volts). *)

val fig2b_leakage : ?vdds:float array -> unit -> voltage_point array
(** Cell leakage power across the sweep (values in watts). *)

val print_fig2 : unit -> unit

(** {1 Figure 3(a) — RSNM and read current, HVT vs LVT} *)

type fig3a = {
  rsnm_lvt : float;
  rsnm_hvt : float;
  iread_lvt : float;
  iread_hvt : float;
}

val fig3a : unit -> fig3a
val print_fig3a : unit -> unit

(** {1 Figures 3(b)-(d) — read-assist sweeps on 6T-HVT} *)

type read_assist_sweep = {
  technique : Assist.Technique.read_assist;
  points : Assist.Sweep.read_point array;
  yield_crossing : float option;
      (** assist voltage where RSNM reaches the 35%%-Vdd rule *)
  lvt_delay_crossing : float option;
      (** assist voltage where the HVT column's BL delay matches the
          unassisted LVT column's *)
}

val fig3_read_assist : Assist.Technique.read_assist -> read_assist_sweep
val print_fig3bcd : unit -> unit

(** {1 Figure 5 — write-assist sweeps on 6T-HVT} *)

type write_assist_sweep = {
  technique : Assist.Technique.write_assist;
  points : Assist.Sweep.write_point array;
  wm_yield_crossing : float option;
}

val fig5_write_assist : Assist.Technique.write_assist -> write_assist_sweep
val print_fig5 : unit -> unit

(** {1 Table 4 and Figure 7 — optimized arrays} *)

type design_row = {
  capacity_bits : int;
  config : Framework.config;
  nr : int;
  nc : int;
  n_pre : int;
  n_wr : int;
  vddc : float;
  vssc : float;
  vwl : float;
  d_array : float;
  e_total : float;
  edp : float;
  d_bl_read : float;
}

val design_table : unit -> design_row list
(** One row per (paper capacity, config): Table 4's parameters joined
    with the Figure 7 metrics. *)

val print_table4 : unit -> unit
val print_fig7 : unit -> unit
(** Figures 7(a)-(c): delay / energy / EDP series per config. *)

val print_fig7d : unit -> unit
(** BL delay vs total delay, 6T-HVT-M1 against 6T-HVT-M2. *)

val print_headline : unit -> unit
(** The abstract's claim, paper-vs-measured. *)

val run_all : unit -> unit
(** Every experiment, in paper order (the bench harness entry point). *)
