(** End-to-end array simulation: a complete n_r x n_c grid of
    transistor-level 6T cells read in one transient.

    Everything upstream models the array analytically; this module is the
    ground truth it is checked against.  The netlist instantiates every
    cell (six FETs plus storage caps), per-column bitline pairs with
    Table-1 capacitances, the accessed row's boosted rails, and the
    word-line step — then runs one read and verifies, at once:

    - the accessed column's bitline develops Delta V_S in about the
      analytic time;
    - the accessed cell is disturbed but not flipped (read stability);
    - the other cells of the accessed row (selected but unsensed) retain;
    - unselected rows retain untouched.

    With the sparse DC path this stays tractable up to a few hundred
    cells; the test suite runs an 8 x 4 grid (~110 unknowns). *)

type result = {
  sensed_delay : float;      (** accessed BL falling by Delta V_S, s *)
  analytic_delay : float;    (** the Equation (1) prediction *)
  relative_error : float;
  accessed_retains : bool;
  row_mates_retain : bool;   (** other columns of the accessed row *)
  unselected_retain : bool;  (** all cells of the other rows *)
  unknowns : int;            (** MNA system size (diagnostics) *)
}

val read_experiment :
  ?nr:int ->
  ?nc:int ->
  cell:Finfet.Variation.cell_sample ->
  Sram6t.condition ->
  result
(** Default grid 8 x 4.  All cells store 0; row 0 is accessed with the
    condition's rails (boost / negative Gnd applied to that row only, as
    the paper's per-row rail multiplexers do); column 0 is the sensed
    one.  The transient runs for 6x the analytic delay. *)

type write_result = {
  flipped : bool;            (** the target cell took the new value *)
  write_delay : float;       (** WL at 50%% Vdd to Q/QB crossing, s *)
  mates_survive : bool;      (** half-selected row mates keep their data *)
  others_survive : bool;     (** unselected rows keep their data *)
  w_unknowns : int;
}

val write_experiment :
  cell:Finfet.Variation.cell_sample ->
  vwl:float ->
  unit ->
  write_result
(** Write a 1 into the (0,0) cell (initially 0, like every other cell)
    with the word line overdriven to [vwl]: column 0's bitlines are driven
    to the write value, the other columns stay precharged, so the row
    mates undergo the half-select (pseudo-read) disturb this experiment
    verifies they survive. *)
