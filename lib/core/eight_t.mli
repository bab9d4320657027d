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

val print_comparison : capacity_bits:int -> unit
