(** Global process corners.

    Monte Carlo ({!Variation}) captures local, per-device mismatch; this
    module captures the correlated die-to-die component as classic
    five-corner analysis: each corner shifts every n-channel (p-channel)
    threshold by a signed multiple of the global sigma.  Margin and
    performance checks across corners are the standard signoff companion
    to the paper's nominal-corner optimization. *)

type corner =
  | TT  (** typical / typical *)
  | FF  (** fast n, fast p (both Vt low) *)
  | SS  (** slow n, slow p (both Vt high) *)
  | FS  (** fast n, slow p — the worst read-stability corner *)
  | SF  (** slow n, fast p — the worst write-margin corner *)

val all : corner list

val name : corner -> string

val apply : corner -> Device.params -> Device.params
(** Shift one device's threshold according to the corner and the device's
    polarity ("fast" = lower Vt). *)

val cell : corner -> nfet:Device.params -> pfet:Device.params -> Variation.cell_sample
(** A 6T cell with every device at the corner (no local mismatch). *)
