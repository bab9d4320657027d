(** Dynamic (transient) cell characteristics: the cell-level write delay
    and the read current drawn from the bitline.

    The paper defines the cell write delay as the time from WL reaching
    50% of Vdd until Q and QB cross; read current is the current the
    accessed cell sinks from the precharged bitline, the quantity the
    negative-Gnd assist boosts. *)

type write_delay_result = {
  delay : float;            (** seconds, WL-at-50%%-Vdd to Q/QB crossing *)
  flipped : bool;           (** false when the write failed in the window *)
  wl_cross_time : float;    (** absolute time WL passed 50%% of Vdd *)
}

val write_delay :
  cell:Finfet.Variation.cell_sample ->
  Sram6t.condition ->
  write_delay_result
(** Transient write-0 into a cell holding 1.  WL ramps from 0 to
    [condition.vwl] over 1 ps; the simulation window is 30 ps, in 600
    steps.  The run stops at the first step where
    WL is at or above 50%% of Vdd and V(Q) <= V(QB): both measurements
    are read from samples up to that step, so the result is the
    full-window run's, bit for bit.  A write that never flips runs the
    whole window. *)
