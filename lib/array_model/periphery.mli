(** Characterized peripheral-circuit look-up tables.

    The paper: "delays and energy consumptions of decoder, driver, sense
    amplifier, and cell-level write are measured by SPICE simulations, and
    those with dependencies on a variable are stored in look-up tables."
    This module generates those LUTs from our substrates: logical-effort
    models for decoders/drivers, the analytic latch model for the sense
    amplifier, and cell transient simulation for the write delay as a
    function of V_WL. *)

val vwl_grid : float array
(** The V_WL levels of the write-delay table (0.42 to 0.72 V). *)

type write_delay_table
(** D_write_sram as a function of V_WL: one cell write transient per
    {!vwl_grid} level, simulated the first time a lookup needs it. *)

type t = {
  row_decoder : Gates.Decoder.result array;
      (** indexed by address bits 0..max_bits *)
  col_decoder : Gates.Decoder.result array;
  driver_delay : float;   (** D_row_drv = D_col_drv: first three superbuffer stages *)
  driver_energy : float;
  sense_delay : float;    (** D_sense_amp at the configured Delta V_S *)
  sense_energy : float;
  write_cell_delay : write_delay_table;  (** read through {!write_delay} *)
  write_cell_energy : float;
  p_leak_cell : float;    (** watts per cell, hold state at nominal Vdd *)
}

val max_address_bits : int
(** 14 — covers n_r up to 1024 (the paper's range) and the much wider
    column spaces that appear when large capacities are evaluated as a
    single bank. *)

val characterize :
  lib:Finfet.Library.t ->
  cell_flavor:Finfet.Library.flavor ->
  unit ->
  t
(** Build all tables for a cell flavor (periphery is always LVT) at the
    technology's Delta V_S.  The
    write-delay table starts empty: {!write_delay} runs each level's
    transient on first use.  Results are not cached here — callers
    should reuse the returned value (see {!shared}). *)

val shared : cell_flavor:Finfet.Library.flavor -> t
(** Memoized characterization against the default device library.  Its
    write-delay table also reads and fills the [periphery.write_delay]
    disk cache (active under the CLI's [--cache-dir]), keyed by cell
    flavor and level: a level another process simulated is read back
    bit for bit instead of simulated. *)

val row_dec : t -> bits:int -> Gates.Decoder.result
val col_dec : t -> bits:int -> Gates.Decoder.result

val write_delay : t -> vwl:float -> float
(** Table lookup, clamped to the characterized V_WL range: linear
    between the two grid levels bracketing [vwl] (one level when
    clamped).  A level not yet filled is read from the disk cache (a
    {!shared} table under [--cache-dir]) or simulated now, timed under
    the [periphery.characterize] span; each level is filled at most
    once per table, and concurrent lookups from several domains are
    safe.  Bit-identical to a table filled up front. *)
