(** Shared assertion helpers for the test suites. *)

val check_close : ?tol:float -> string -> float -> float -> unit
(** Relative closeness: |a - b| <= tol * max(|a|, |b|, 1e-30).
    Default tolerance 1e-9. *)

val check_close_abs : ?tol:float -> string -> float -> float -> unit
(** Absolute closeness; default tolerance 1e-12. *)

val check_within : string -> lo:float -> hi:float -> float -> unit
(** Asserts lo <= x <= hi. *)

val check_increasing : ?strict:bool -> string -> float array -> unit
val check_decreasing : ?strict:bool -> string -> float array -> unit

val value_at : Spice.Transient.trace -> node:Spice.Netlist.node -> time:float -> float
(** Linear interpolation of a node voltage at an arbitrary time, held at
    the end values outside the trace's window. *)

val pvt_box :
  (string * Finfet.Library.flavor * Finfet.Corners.corner * float) list
(** Both flavors x the five corners x {-40, 25, 85, 125} C, each with its
    label, e.g. ["LVT/SF/-40"]. *)

val capture_stdout : (unit -> unit) -> string
(** What [f] prints on stdout (through a temporary file). *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [f ()] with the process-wide pool at [jobs] workers; back at one
    job when it returns or raises. *)

val with_journal : Persist.Checkpoint.t -> (unit -> 'a) -> 'a
(** [f ()] with [j] as the process-wide checkpoint journal; back at
    none when it returns or raises. *)

val case : string -> (unit -> unit) -> unit Alcotest.test_case
(** Quick test case shorthand. *)

val slow_case : string -> (unit -> unit) -> unit Alcotest.test_case
(** `Slow test case (excluded by [dune runtest] with ALCOTEST_QUICK). *)

module Deck_print : module type of Deck_print
(** Netlist -> deck text, for the parser's round-trip tests. *)

module Gate_sim : module type of Gate_sim
(** Transistor-level netlists of the gate models: the transient
    oracle for the logical-effort delays. *)

module Golden_gen : module type of Golden_gen
(** Golden-file content generation (re-exported through the library's
    main module so test binaries can reach it). *)

module Oracle : module type of Oracle
(** Bit-exact reference implementations of the SPICE-level kernels. *)

module Persist_oracle : module type of Persist_oracle
(** The bytewise CRC-32 and the tree-building JSON parser the record
    log's one-scan open replaced. *)
