(** The 8T SRAM cell — the "more robust cell at larger area" alternative
    the paper's introduction sets aside ([2, 3] in its references).

    An 8T cell is a 6T core (written through WWL / WBL exactly like the
    6T) plus a decoupled two-transistor read port: a read pull-down whose
    gate is the QB storage node and a read access gated by a separate read
    word line onto a single-ended read bitline.  Because the read never
    disturbs the storage nodes, the read SNM equals the hold SNM — read
    stability is solved structurally instead of with HVT devices and
    assist rails, at the cost of ~30%% more cell area and two more leakage
    paths.  {!Sram_edp.Eight_t} builds the array-level comparison. *)

type t = {
  core : Finfet.Variation.cell_sample;   (** the 6T write/storage core *)
  read_pull_down : Finfet.Device.params; (** gate tied to QB *)
  read_access : Finfet.Device.params;    (** gate tied to RWL *)
}

val of_library : Finfet.Library.t -> Finfet.Library.flavor -> t
(** All eight transistors in the given flavor, single-fin. *)

val area_factor : float
(** Cell footprint relative to the 6T layout: 1.3 (two extra transistors
    on the standard 8T layout). *)

val hold_snm : t -> vdd:float -> float
(** Same retention metric as the 6T core. *)

val read_snm : t -> vdd:float -> float
(** Equal to {!hold_snm}: the decoupled read port does not disturb the
    cell.  Provided as its own function so call sites document which
    margin they constrain. *)

val write_margin : t -> Sram6t.condition -> float
(** Delegates to the 6T core's write analysis. *)

val read_current : t -> ?vssc:float -> unit -> float
(** Current the read stack sinks from the precharged read bitline:
    the read pull-down's gate sits at the full cell supply (QB stores 1
    when Q = 0), the read word line at Vdd drives the read access, and [vssc]
    (default 0) is the read-buffer source rail — the negative-Gnd assist
    applies to the read port without any stability cost. *)

val leakage_power : t -> float
(** Hold-state leakage of the full 8-transistor cell at the nominal Vdd (DC solve; the read
    port adds roughly one OFF-transistor path to the 6T figure). *)
