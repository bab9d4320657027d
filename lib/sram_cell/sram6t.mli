(** The standard 6T SRAM cell (Figure 1(a) of the paper): netlist
    construction under arbitrary rail and assist voltages, and the DC
    helpers shared by the margin / leakage / dynamics analyses.

    Naming: the "left" half stores Q, the "right" half stores QB.  BL is
    the bitline on the Q side. *)

type condition = {
  vdd : float;        (** nominal supply: BL precharge level and the WL
                          read level before assists *)
  vddc : float;       (** cell supply rail (= vdd unless Vdd-boost) *)
  vssc : float;       (** cell ground rail (= 0 unless negative-Gnd) *)
  vwl : float;        (** wordline high level for the operation modelled *)
  vbl : float;        (** BL level (Q side): precharge for read, write-0
                          level for write (negative under negative-BL) *)
  vblb : float;       (** BLB level (QB side) *)
}

val hold : ?vdd:float -> unit -> condition
(** WL off, bitlines precharged, rails nominal: the retention state.
    [vdd] defaults to the technology nominal. *)

val read : ?vddc:float -> ?vssc:float -> ?vwl:float -> unit -> condition
(** Worst-case static read at the technology's nominal [vdd]: WL on,
    both bitlines clamped at [vdd].  Assist levels default to no-assist
    values. *)

val write0 : ?vwl:float -> ?vbl:float -> unit -> condition
(** Writing 0 into Q (which holds 1) at the technology's nominal [vdd]:
    BL driven to [vbl] (default 0), BLB to [vdd], WL at [vwl]
    (overdriven if > vdd). *)

type nodes = {
  q : Spice.Netlist.node;
  qb : Spice.Netlist.node;
  cvdd : Spice.Netlist.node;
  cvss : Spice.Netlist.node;
  wl : Spice.Netlist.node;
  bl : Spice.Netlist.node;
  blb : Spice.Netlist.node;
}

val build :
  ?with_node_caps:bool ->
  ?wl_wave:Spice.Netlist.waveform ->
  cell:Finfet.Variation.cell_sample ->
  condition ->
  Spice.Netlist.t * nodes
(** Full cross-coupled cell with its five rails as voltage sources.
    [with_node_caps] (default false) attaches the lumped storage-node
    capacitances needed by transient analysis.  [wl_wave] overrides the WL
    source with a waveform (for write-delay transients). *)

val storage_node_cap : Finfet.Variation.cell_sample -> float
(** Lumped capacitance of one storage node: local drain junctions plus the
    opposite inverter's gate load. *)

type state =
  | Settled of float * float  (** (V_Q, V_QB) of a converged solve *)
  | Unsettled
      (** Neither Newton's direct attempt nor source stepping converged:
          no voltages are given, since the last iterate is no answer. *)

val solve_state :
  ?q_init:float ->
  cell:Finfet.Variation.cell_sample ->
  condition ->
  state
(** DC solve of the cell.  [q_init] biases the Newton start so the
    intended lobe of the bistable solution is found (default: Q low).
    The complementary node starts at the opposite rail.  The direct
    attempt is capped at 20 Newton iterations, not the solver's 150:
    when the requested state no longer exists (a write probe above the
    flip point), that attempt only stalls, and source stepping from zero
    settles the cell instead. *)

val build_half_vtc :
  cell:Finfet.Variation.cell_sample ->
  side:[ `Left | `Right ] ->
  access_on:bool ->
  condition ->
  vin:float ->
  Spice.Netlist.t * Spice.Netlist.node
(** One inverter of the cell with its input gate driven by an independent
    source at [vin] — the half-cell used to trace butterfly curves.
    [access_on] selects the read configuration (WL at [condition.vwl],
    bitline clamped) versus hold (WL grounded).  Returns the netlist and
    the output node; the input source is the netlist's first voltage
    source, so a {!Spice.Dc.sweep} with [~source:0] traces the VTC. *)
