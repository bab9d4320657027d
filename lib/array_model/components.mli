(** Interconnect delay / switching-energy components — Table 2 of the
    paper, evaluated through Equation (1):

      D = C dV / I        E_sw = C V dV

    with C from {!Caps}, I from {!Currents}, and (V, dV) per the table's
    rows.  Components with zero voltage change cost nothing. *)

type de = { delay : float; energy : float }

type assist = {
  vddc : float;  (** read-assist cell supply (Vdd boost level) *)
  vssc : float;  (** read-assist cell ground (negative, or 0) *)
  vwl : float;   (** write-assist wordline level (WL overdrive) *)
}

val equation1 : c:float -> v:float -> dv:float -> i:float -> de
(** Equation (1) itself: D = C dV / I, E = C V dV, and [{0; 0}] when
    [dv <= 0].  Staging prices the assist-blind components from hoisted
    (C, V, dV, I) operands through this exact function, which is what
    makes the staged operands bit-identical to the component helpers
    below.  It does not price [Array_eval.complete]'s four
    assist-dependent rail components: those are read from a prepared
    row with a zero swing for a rail that does not move, in the same
    association ((C V) dV and (C dV) / I). *)

val cvdd : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val cvss : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val wl_read : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val wl_write : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val col : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val bl_read : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val bl_write : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val precharge_read : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
val precharge_write : Caps.device_caps -> Currents.t -> Geometry.t -> assist -> de
