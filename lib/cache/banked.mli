(** Banked-memory co-optimization: an architecture level above the paper.

    Large capacities are not built as one monolithic array; they are split
    into banks reached over an H-tree, trading shorter word/bit lines
    against interconnect delay/energy and the idle banks' leakage.  This
    module extends the paper's co-optimization with the bank count as one
    more architecture variable: every candidate bank count re-runs the
    full array-level search for the per-bank organization and assist
    voltages, then the bank-level metrics are assembled as

      D = D_htree + D_bank
      E = alpha E_sw,bank + E_htree + M_total P_leak,cell D

    (leakage accrues over the whole cycle in every bank, accessed or
    not). *)

type bank_design = {
  banks : int;                        (** power of two *)
  per_bank : Opt.Exhaustive.result;   (** the array-level optimum *)
  htree_length : float;               (** route length, m *)
  d_htree : float;
  e_htree : float;                    (** per access, address + W data bits *)
  d_total : float;
  e_total : float;
  edp : float;
  area : float;                       (** cell-array silicon, m^2 *)
}

val evaluate_banking :
  ?space:Opt.Space.t ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Opt.Space.method_ ->
  banks:int ->
  unit ->
  bank_design
(** Metrics for one bank count, for a 64-bit word.
    @raise Invalid_argument unless [banks] is a power of two dividing the
    capacity into power-of-two banks. *)

val optimize :
  ?space:Opt.Space.t ->
  ?max_banks:int ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Opt.Space.method_ ->
  unit ->
  bank_design * bank_design list
(** Best EDP bank count (1 .. max_banks, default 16, powers of two) plus
    the whole sweep for reporting. *)
