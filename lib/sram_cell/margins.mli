(** Cell-level reliability margins.

    - HSNM / RSNM delegate to {!Butterfly}.
    - The write margin follows the paper's definition [9]: the difference
      between Vdd and the minimum WL voltage that flips the cell content.
      A cell that cannot be written even with WL at Vdd has a negative
      margin; one that flips with WL at 0 has WM = Vdd. *)

val hold_snm :
  ?points:int -> cell:Finfet.Variation.cell_sample -> float -> float
(** [hold_snm ~cell vdd]: HSNM at the given supply, no assists
    (Figure 2(a) sweep). *)

val read_snm :
  ?points:int ->
  cell:Finfet.Variation.cell_sample ->
  Sram6t.condition ->
  float
(** RSNM under a read condition (assists included via the condition). *)

val flips_at_vwl :
  cell:Finfet.Variation.cell_sample -> Sram6t.condition -> vwl:float -> bool
(** Does a write-0 attempt at the given WL level flip a cell holding 1?
    The bitline levels come from the condition; [vwl] overrides its WL.
    A {!Sram6t.solve_state} started on the '1' state decides: flipped
    when it settles with Q below QB.  When it is {!Sram6t.Unsettled},
    the write-mode butterfly (WL on, 81 points) decides instead: flipped
    when its Q-high lobe ([lobe_low]) is 0.  Each such probe bumps the
    [margins.butterfly_fallbacks] counter. *)

val minimum_flipping_vwl :
  cell:Finfet.Variation.cell_sample ->
  Sram6t.condition ->
  float
(** Smallest WL level that flips the cell, found by bisection over
    [0, vdd + 0.4] down to a 1 mV bracket.  Clamps to the bounds when
    the cell flips at 0 or never flips in range. *)

val write_margin :
  cell:Finfet.Variation.cell_sample ->
  Sram6t.condition ->
  float
(** WM = (driven WL level, i.e. [condition.vwl]) - {!minimum_flipping_vwl}:
    the wordline headroom above the flip point.  Driving WL at nominal Vdd
    recovers the paper's base definition; raising [condition.vwl] models
    the WL-overdrive assist (Figure 5(a)), and lowering [condition.vbl]
    models negative-BL (Figure 5(b)). *)
