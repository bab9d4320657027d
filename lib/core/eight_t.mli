(** Array-level comparison of the 8T-LVT alternative against the paper's
    6T proposals — the quantitative version of the paper's introduction
    remark that "more robust SRAM cell structures exist, but such SRAM
    cells come at the cost of larger layout area".

    The 8T array reuses the full analytical machinery with three
    substitutions: cell wire capacitances scaled by the 8T footprint,
    the decoupled read port's stack current as the read-current model,
    and no V_DDC boost (the read SNM equals the hold SNM, which already
    meets the yield rule at nominal).  Negative Gnd remains available —
    on the read-buffer source it speeds the read with no stability
    penalty at all.  The write port is the 6T's, so V_WL keeps its
    yield-driven overdrive. *)

val env : unit -> Array_model.Array_eval.env
(** LVT environment with the 8T wire-capacitance factor and read-current
    model installed. *)

val optimize : capacity_bits:int -> Opt.Exhaustive.result
(** Co-optimize the 8T array (M2 voltage policy: the V_SSC rail is the
    only extra level). *)

type comparison_row = {
  name : string;
  d_array : float;
  e_total : float;
  edp : float;
  area : float;          (** cell-array silicon, m^2 *)
  leakage_per_cell : float;
}

val compare : capacity_bits:int -> comparison_row list
(** 6T-LVT-M2, 6T-HVT-M2 and 8T-LVT at the same capacity. *)

val print_comparison : capacity_bits:int -> unit
