(** Switched-capacitor DC-DC converter efficiency for the assist rails.

    The paper multiplies assist-circuit energies by an (unstated) scaling
    factor "to account for inefficiency of DC-DC converters".  This module
    replaces the arbitrary constant with a first-order model of an on-die
    switched-capacitor converter: an SC converter has a discrete set of
    ideal conversion ratios; its peak efficiency at output voltage v_out
    from rail v_in is (v_out / (r v_in)) for the smallest available ratio
    r with r v_in >= v_out, degraded by a fixed switching/control loss.

    The derived overheads justify treating the paper's factor as ~1.2-1.4
    for the boost rails used here, and let the energy model price each
    assist rail by its own conversion ratio. *)

val efficiency : v_out:float -> unit -> float
(** Conversion efficiency delivering [v_out] (magnitude; a negative value
    is treated as an inverting rail) from the nominal supply.  1.0 when
    [v_out] equals the input rail (no converter). *)

val overhead : v_out:float -> unit -> float
(** 1 / {!efficiency}: the multiplier the energy model applies. *)
