(** Engineering-unit formatting for reports. *)

val ps : float -> string
(** Seconds rendered in picoseconds, e.g. "134.2 ps". *)

val fj : float -> string
(** Joules rendered in femtojoules. *)

val nw : float -> string
(** Watts rendered in nanowatts. *)

val mv : float -> string
(** Volts rendered in millivolts (no decimals). *)

val ua : float -> string
(** Amps rendered in microamps. *)

val si : float -> string
(** Generic engineering notation, three significant digits, with an SI
    prefix (f, p, n, u, m, '', k, M, G). *)

val capacity : int -> string
(** Bits rendered as "128B" / "1KB" / "16KB". *)

val percent : float -> string
(** Ratio rendered as a signed percentage, e.g. "-59.0%". *)
