(** Read and write assist techniques (Section 3 of the paper).

    Read assists act on the cell's static read condition; write assists on
    the write condition.  Each technique is parameterized by its single
    voltage knob, and {!read_condition} / {!write_condition} translate a
    (technique, voltage) pair into the cell-level condition the margin and
    dynamics analyses consume. *)

type read_assist =
  | Wl_underdrive   (** V_WL below Vdd during read: stabilizes, slows *)
  | Vdd_boost       (** cell supply raised to V_DDC > Vdd during read *)
  | Negative_gnd    (** cell ground pulled to V_SSC < 0 during read *)

type write_assist =
  | Wl_overdrive    (** V_WL above Vdd during write *)
  | Negative_bl     (** write-0 bitline driven below ground *)

val read_assist_name : read_assist -> string
val write_assist_name : write_assist -> string

val read_condition : read_assist -> voltage:float -> Sram_cell.Sram6t.condition
(** The static read condition with the given technique applied at
    [voltage] (the technique's own knob: V_WL, V_DDC or V_SSC) and every
    other rail nominal. *)

val write_condition : write_assist -> voltage:float -> Sram_cell.Sram6t.condition
(** The write-0 condition with the technique applied ([voltage] is V_WL
    for overdrive, the negative BL level otherwise). *)

val default_read_range : read_assist -> float array
(** The sweep the paper plots: WLUD 250..450 mV, boost 450..700 mV,
    negative Gnd 0..-240 mV. *)

val default_write_range : write_assist -> float array
(** WLOD 450..660 mV, negative BL 0..-150 mV. *)
