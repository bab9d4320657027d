(** Divided (segmented) word-line architecture — an extension beyond the
    paper's flat WL.

    The paper's array asserts one word line across all n_c columns, so
    every cell in the row conducts on every access.  The classic divided-
    WL organization runs a light global word line (wire plus one local
    driver per segment) and only raises the selected segment's local WL —
    shortening the WL critical path and activating only the W accessed
    cells.  This module prices that organization with the same Equation-
    (1) machinery so it can be compared against the paper baseline
    (bench `ablation`).

    Modelling choices: the local driver is a fixed 9-fin buffer (a
    mid-rung of the paper's superbuffer); its input sits on the global
    line; segment selection reuses the column-decoder timing (it decodes
    the same address bits).  Energy follows the strict (Table 3) style:
    each component once, with the local-WL term covering only the selected
    segment. *)

type wl_breakdown = {
  segments : int;
  c_global : float;       (** global WL capacitance *)
  c_local : float;        (** one segment's local WL capacitance *)
  d_global : float;
  d_local : float;
  d_total : float;        (** global + local, the segmented WL delay *)
  e_read : float;         (** global swing + one local segment *)
  e_write : float;
}

val wl : Caps.device_caps -> Currents.t -> Geometry.t ->
  Components.assist -> segments:int -> wl_breakdown
(** @raise Invalid_argument unless [segments] divides n_c into at least
    W-bit segments (1 <= segments <= n_c / min(W, n_c)). *)

val natural_segments : Geometry.t -> int
(** n_c / min(W, n_c): one segment per access group, the organization that
    activates exactly the accessed cells. *)

val evaluate :
  Array_eval.env -> Geometry.t -> Components.assist -> segments:int ->
  Array_eval.metrics
(** The full array metrics with the flat WL replaced by the segmented one
    (strict accounting).  All other components are the baseline's. *)
