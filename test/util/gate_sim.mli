(** Structural (transistor-level) netlists for the gate models, and their
    transient verification: the validation oracle of the logical-effort
    models in the [gates] library, used by test_gates.

    The paper notes its word-line driver was "derived analytically and
    verified by SPICE simulations"; this module is that verification for
    our substrates: it builds the actual FET netlists of inverters, NAND
    gates and superbuffer chains, runs the {!Spice} transient, and
    measures 50%%-to-50%% propagation delays that the test suite compares
    against the logical-effort estimates. *)

type built = {
  netlist : Spice.Netlist.t;
  input : Spice.Netlist.node;
  output : Spice.Netlist.node;
}

val build_inverter_chain :
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  fins:int list ->
  c_load:float ->
  built
(** A chain of inverters with the given per-stage fin counts, each output
    loaded by its own drain parasitics (explicit capacitors) and the last
    by [c_load].  The input node is driven by a step source. *)

val build_nand2_stage :
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  nfin:int ->
  c_load:float ->
  built
(** One 2-input NAND (series NFET stack, parallel PFETs) with its second
    input tied high, driven by a step on the first input — the switching
    case the logical-effort numbers describe. *)

val measure_delay : ?t_stop:float -> built -> float
(** Transient propagation delay: input crossing Vdd/2 to the output's
    first crossing of Vdd/2 (either direction).  Raises [Failure] if the
    output never switches in the window. *)

val superbuffer_simulated_delay :
  Gates.Superbuffer.t -> c_load:float -> float
(** Transient delay of the whole driver into [c_load]. *)

val superbuffer_model_delay : Gates.Superbuffer.t -> c_load:float -> float
(** The logical-effort estimate for the same structure (all stages). *)

val build_decoder_path :
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  bits:int ->
  c_out:float ->
  built
(** The critical path of the predecoded decoder {!Gates.Decoder} models:
    address buffer, 2-bit predecode NAND2 + driver loaded with the full
    fanout (2^bits / 4 final-gate inputs, attached as an explicit
    capacitor), then the NAND2 combine tree into [c_out].  Off-path NAND
    inputs are tied so the stepped address input propagates. *)

val decoder_simulated_delay :
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  bits:int ->
  c_out:float ->
  float
(** Transient delay of {!build_decoder_path} — compared against
    {!Gates.Decoder.decode} in the test suite.  Note the structural path has no
    inserted buffers, so for large [bits] it is slower than the
    buffer-optimal LUT value; agreement is checked at moderate widths. *)

val build_sense_amp :
  Gates.Sense_amp.t ->
  Spice.Netlist.t * Spice.Netlist.node * Spice.Netlist.node
(** The sense amplifier's cross-coupled latch, each internal node loaded
    by {!Gates.Sense_amp.node_cap}; returns (netlist, node_plus,
    node_minus).  The caller pre-splits the two nodes around Vdd/2
    through {!Spice.Transient.run}'s initial conditions. *)
