(** Calibration of the compact model against the paper's published anchors.

    The original work characterizes a proprietary 7nm FinFET SPICE library
    [Chen et al., S3S'14].  We do not have it, so the compact model of
    {!Device} is solved numerically to reproduce every quantitative anchor
    the paper states:

    - HVT read-current fit: I_read = b (V - V_t)^a with a = 1.3,
      b = 9.5e-5 A/V^1.3, V_t = 335 mV (Section 5) — interpreted, as in the
      paper, as the current through the series access/pull-down stack;
    - LVT ON current = 2 x HVT ON current;
    - LVT OFF current = 20 x HVT OFF current;
    - 6T cell leakage 1.692 nW (LVT) and 0.082 nW (HVT) at nominal Vdd.  *)

val paper_read_current : vddc:float -> vssc:float -> float
(** The paper's analytic fit I_read = b (vddc - vssc - vt)^a; 0 below
    threshold. *)

val stack_read_current :
  access:Device.params -> pull_down:Device.params ->
  vwl:float -> vbl:float -> vddc:float -> vssc:float -> float
(** Read current through the series access + pull-down stack: solves the
    internal storage-node voltage by bisection of the KCL balance, then
    returns the common current.  [vwl] drives the access gate, [vbl] is the
    bitline voltage, [vddc] the pull-down gate (the opposite storage node,
    boosted under Vdd-boost assist), [vssc] the cell ground. *)

val calibrate_hvt_nfet : unit -> Device.params
(** HVT NFET meeting the read-fit and leakage anchors. *)

val calibrate_lvt_nfet : hvt:Device.params -> Device.params
(** LVT NFET meeting the ION/IOFF ratio anchors relative to [hvt]. *)

val derive_pfet : Device.params -> Device.params
(** Matching PFET: 0.75x the per-fin drive, same Vt magnitude
    and swing; gate/drain capacitance slightly larger (hole devices). *)
