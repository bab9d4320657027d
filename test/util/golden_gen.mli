(** Golden-file content, generated deterministically from a
    reduced-space Table-4 sweep.  [test_golden.ml] diffs these strings
    against the committed [test/golden/*]; [regen_golden.ml] rewrites
    the files deliberately (`make regen-golden`). *)

val capacities : int list
(** Capacities covered by the golden sweep (bits). *)

val table4_json : unit -> string
(** The design table as pretty-printed JSON, newline-terminated. *)

val report_text : unit -> string
(** The Table-4 text rendering ({!Sram_edp.Report}). *)

val datasheet_text : unit -> string
(** Datasheet of the 1KB 6T-HVT-M2 design point. *)

val stats_schema : unit -> string
(** The `stats` endpoint payload reduced to its schema shape (scalars
    become type names, lists collapse to their first element) over a
    synthesized full serving state — pins the key set and nesting of
    DESIGN.md §7 without golding non-deterministic timings. *)

val physics_json : unit -> string
(** The SPICE-level answers as IEEE-754 bit patterns (hex): yield pins
    over both flavors x every corner x {-40, 25, 85, 125} C, the
    write-delay LUT at grid, interpolated and clamped V_WL, and RSNM over
    a V_DDC x V_SSC grid.  Any kernel change that moves one of them by an
    ulp shows up here. *)

val files : unit -> (string * string) list
(** [(basename, content)] for every golden file. *)
