(** A functional, cycle-costed SRAM macro.

    This is the component a system simulator would actually instantiate:
    a word-addressable memory whose every operation is priced with the
    co-optimized array's delay and energy (Table 3 / Equations (2)-(5))
    and whose idle time accrues leakage.  Contents power up to random
    values (real SRAM does), reads and writes are functionally exact, and
    the accumulated statistics reconcile with the analytical model — a
    property the test suite checks.

    The macro is single-ported and blocking: each operation advances time
    by the operation's delay; [idle] advances it by one array cycle. *)

type t

val create :
  env:Array_model.Array_eval.env ->
  geometry:Array_model.Geometry.t ->
  assist:Array_model.Components.assist ->
  unit ->
  t
(** A macro over an explicit design point, powered up from seed 2016. *)

val create_optimized :
  capacity_bits:int ->
  flavor:Finfet.Library.flavor ->
  method_:Opt.Space.method_ ->
  unit ->
  t
(** Run the co-optimization over {!Opt.Space.default} and wrap the
    winning design. *)

val capacity_bits : t -> int

val word_bits : t -> int
(** Bits per addressable word: min(W, n_c). *)

val words : t -> int

type response = {
  data : int64;     (** word read, or the word just written *)
  delay : float;    (** seconds consumed by this operation *)
  energy : float;   (** joules consumed, leakage included *)
}

val read : t -> addr:int -> response
(** @raise Invalid_argument when the address is out of range. *)

val write : t -> addr:int -> data:int64 -> response
(** Data beyond [word_bits] is masked off. *)

val idle : t -> unit
(** One array-cycle of inactivity (leakage only). *)

type stats = {
  reads : int;
  writes : int;
  idle_cycles : int;
  elapsed : float;           (** total simulated time, s *)
  switching_energy : float;  (** J *)
  leakage_energy : float;    (** J *)
  total_energy : float;
  worst_op_delay : float;
}

val stats : t -> stats

val reset_stats : t -> unit
(** Clears the counters; memory contents persist. *)

val run_trace : t -> Workload.Trace.access array -> stats
(** Play an operation trace: reads and writes target pseudo-random
    addresses derived from the macro's RNG; returns the statistics of
    this run only (counters are reset first). *)
