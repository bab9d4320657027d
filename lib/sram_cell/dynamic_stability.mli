(** Dynamic read stability: the pulse-width dimension the paper's static
    analysis conservatively ignores.

    Static RSNM asks whether a cell survives an infinitely long read;
    real word lines close after a pulse.  A cell whose static margin is
    negative can still be read safely if the WL pulse is shorter than the
    time its storage node needs to cross the trip point — which is why
    static-margin-constrained assist levels are conservative.  This module
    measures that flip time by transient simulation and finds the critical
    pulse width. *)

val survives_pulse :
  cell:Finfet.Variation.cell_sample ->
  condition:Sram6t.condition ->
  pulse:float ->
  unit ->
  bool
(** Transient a read access whose WL pulse lasts [pulse] seconds (1 ps
    edges), from the Q = 0 hold state, and report whether the cell still
    holds its value once the word line has closed and the cell has had an
    equal time to resettle, in 400 steps. *)

val critical_pulse :
  cell:Finfet.Variation.cell_sample ->
  condition:Sram6t.condition ->
  unit ->
  float option
(** Largest safe pulse width, found by bisection over 1 ps .. 200 ps.
    [None] when even the longest pulse is safe (the statically stable
    case); [Some 1e-12] means the cell is dynamically unusable at this
    condition. *)
