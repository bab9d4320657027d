(** Array-level delay and energy — Table 3 and Equations (2)-(5).

    Read:  D_rd = max(row-path + WL + BL, column-path + COL)
                  + D_sense + D_precharge,rd
    Write: D_wr = max(row-path + WL_wr, column-path + COL + BL_wr)
                  + D_write_cell(V_WL) + D_precharge,wr

    D_array = max(D_rd, D_wr)
    E_sw    = beta E_rd + (1 - beta) E_wr
    E_leak  = M P_leak,cell D_array
    E       = alpha E_sw + E_leak

    Two energy-accounting modes are provided:
    - [`Paper_strict] (default) prices each Table 3 component exactly
      once, as the table prints them;
    - [`Physical] multiplies per-bitline components by their
      multiplicity: all n_c columns discharge and re-precharge on a read
      (every cell under the active word line conducts), W sense amps fire,
      W bitlines swing on a write, and the n_c - W unselected columns pay
      a read-disturb discharge.  The choice is an ablation benchmark. *)

type accounting = Paper_strict | Physical

type env = {
  lib : Finfet.Library.t;
  cell_flavor : Finfet.Library.flavor;
  currents : Currents.t;
  periphery : Periphery.t;
  dcaps : Caps.device_caps;
  alpha : float;           (** array activity factor (paper: 0.5) *)
  beta : float;            (** read fraction of accesses (paper: 0.5) *)
  accounting : accounting;
}

val make_env :
  ?alpha:float ->
  ?beta:float ->
  ?accounting:accounting ->
  ?read_current_model:
    [ `Simulated | `Paper_fit | `Custom of vddc:float -> vssc:float -> float ] ->
  ?cell_width_factor:float ->
  cell_flavor:Finfet.Library.flavor ->
  unit ->
  env
(** Environment against the default calibrated library with memoized
    periphery characterization.  [cell_width_factor] scales the cell
    footprint's wire capacitances (1.0 = the 6T layout);
    [`Custom] supplies an alternative read-current model (used by the 8T
    comparison study, whose read stack differs from the 6T one). *)

val dcdc_overhead : float
(** Assist-rail energy scaling for DC-DC inefficiency (the paper leaves
    it unspecified): 1.25 on the V_DDC and V_SSC rails and on a boosted
    write wordline. *)

type metrics = {
  d_read : float;
  d_write : float;
  d_array : float;          (** Equation (2) *)
  e_read : float;           (** E_sw,rd, one access *)
  e_write : float;          (** E_sw,wr, one access *)
  e_switching : float;      (** Equation (3) *)
  e_leakage : float;        (** Equation (4) *)
  e_total : float;          (** Equation (5) *)
  edp : float;              (** e_total x d_array, the objective *)
  d_bl_read : float;        (** bitline discharge term (Figure 7(d)) *)
  d_row_path_read : float;  (** decoder + driver + WL for the read *)
  d_col_path : float;       (** column decoder + driver + COL *)
}

(** {1 Table 3, term by term}

    {!attribute} is the one place the model's sums are written: it
    prices every Table 3 component once, lists each addend under its
    label {e in the order Equations (2)-(5) add it}, and folds the
    lists into its metrics.  Re-summing a list with {!refold}
    reproduces the corresponding [metrics] field bit for bit (OCaml
    [+.] is left-associative; {!refold} seeds the fold with the first
    term to preserve the association).  {!evaluate} returns those
    metrics. *)

type attribution = {
  at_metrics : metrics;  (** the folded totals, = [evaluate] *)
  at_alpha : float;
  at_beta : float;
  (* Energy terms per access, in fold order.  Under [Physical]
     accounting, multiplicity-scaled terms are single addends (e.g.
     all-columns bitline+precharge), never re-distributed. *)
  at_read_energy : (string * float) list;   (** refold = [e_read] *)
  at_write_energy : (string * float) list;  (** refold = [e_write] *)
  (* Delay stages.  d_read = max(refold row, refold col) then the tail
     terms folded in order; d_write likewise; d_array = max of the
     two. *)
  at_read_row : (string * float) list;   (** decoder, driver, WL, BL *)
  at_read_col : (string * float) list;   (** empty without a column mux *)
  at_read_tail : (string * float) list;  (** sense amp, precharge *)
  at_write_row : (string * float) list;
  at_write_col : (string * float) list;  (** column path + write bitline *)
  at_write_tail : (string * float) list; (** write cell, precharge *)
}

val attribute : env -> Geometry.t -> Components.assist -> attribution

val evaluate : env -> Geometry.t -> Components.assist -> metrics
(** [(attribute env g a).at_metrics]: the reference pricing of one
    design, without the staging below. *)

val refold : (string * float) list -> float
(** Left fold of [+.] seeded with the first term ([0.0] on an empty
    list) — the association {!attribute} folds with. *)

(** {1 Staged evaluation kernel}

    [evaluate] recomputes per-(geometry, assist) work that depends on
    only one of the two coordinates.  The staged kernel factors it:
    {!stage_array} precomputes everything geometry-determined (decoders,
    wire capacitances, assist-blind Table 2 components, segment
    prefixes) for a whole candidate grid, {!prepare} everything
    assist-determined (rail drive currents, write cell delay), and
    {!complete} finishes the cross terms for one (grid index, assist)
    pair — a few dozen float operations with no table lookups or memo
    locks.  Results are bit-identical to [evaluate]: every hoisted leaf
    comes from the same expression as the reference path and the
    combining arithmetic runs in the same association order (asserted
    field-for-field by the QCheck property suite). *)

type grid
(** A staged candidate grid: [evaluate] with the assist-dependent holes
    left open, for each geometry of the grid in order, paired with the
    environment that prices it.  The staged operands are one flat float
    block (a table of the operands that depend only on (n_r, n_c, W),
    one row per n_r of a candidate grid, then the rest per geometry), so
    a grid of thousands of geometries is a single major-heap allocation
    that the minor GC never copies.  The block reads nothing of the
    accounting, alpha or beta: {!complete} and {!scan} take those from
    the paired environment, so one block serves
    every environment of its device set (see the staging store
    below). *)

type prepared
(** One assist as the kernel reads it, reusable across every geometry:
    one row of eight floats, which OCaml stores unboxed as a single
    float block — the swings, V and drives of the four
    assist-dependent components, the WL-boost energy scaling and the
    write cell delay.  A rail that does not move carries a zero swing,
    so the scan needs no branch. *)

val stage : env -> Geometry.t -> grid
(** A one-element grid for this geometry, staged afresh and kept
    nowhere.  Every geometry actually staged, here or by
    {!stage_array}, adds one to the ["array_eval.stage"] telemetry
    counter. *)

val prepare : env -> Components.assist -> prepared
(** Hoist all assist-only computation (the rail currents and the write
    cell delay). *)

val complete : grid -> int -> prepared -> metrics
(** [complete grid i p] finishes the evaluation of the grid's geometry
    [i], pricing the four assist-dependent components from [p]'s
    operands in {!scan}'s association order; bit-identical to
    [evaluate env geometry assist] for the matching inputs, on all 12
    fields.  Raises [Invalid_argument] when [i] is outside the
    grid. *)

(** {1 Staging context: the staging store}

    Staging reads three things of an environment, its {e device set}:
    its device capacitances, its periphery tables and its currents' two
    ON currents ({!Currents.i_on_pfet}, {!Currents.i_on_tg}).
    [make_env] builds them from the flavor alone, so both accountings of
    a flavor share a device set, while the 8T environment's scaled cell
    caps make one of their own.  A grid is staged once per device set.

    A [ctx] is an environment and a store of staged grids under one
    lock.  The store finds a grid by the {e identity} of the grid array
    and the device fields of the environment that staged it (the
    periphery value, the bits of the six device caps and of the two ON
    currents), and holds grids most recently used first up to a bound
    of 3,520,000 operands (~28 MB, all 20 flavor x capacity grids of
    the default space).  It is the only staged state a process keeps:
    {!stage} keeps nothing. *)

type ctx

val make_ctx : env -> ctx
(** This environment with a fresh private store that holds no staged
    grid, so its first {!stage_array} of a grid stages it cold. *)

val ctx_for : env -> ctx
(** This environment with the process-wide store, which every
    [ctx_for] context shares: environments of one device set find each
    other's staged grids. *)

val ctx_env : ctx -> env

val stage_array : ctx -> Geometry.t array -> grid
(** Stage a whole candidate grid into one block, or find it in the
    context's store: the store keys a grid on the environment's device
    fields and the {e identity} of the array, so searches that share one
    memoized grid (the two methods and both accountings of a Table 4
    capacity, queries differing only in V_SSC) stage it once.  The
    result pairs the block with the context's environment.  Index [i]
    of the result is bit-identical to [stage]'s one-element grid for
    [gs.(i)], whatever the array's order; the block is immutable shared
    state. *)

val staged_operands : unit -> int
(** Operands the process-wide store's grids hold; never above the
    bound. *)

val reset_staging : unit -> unit
(** Drop every grid of the process-wide store (benchmarks call this
    between runs so cold-path measurements stay cold). *)

(** {1 Admissible bounds}

    A bound is a [prepared] row.  Over a set of assists, the row that
    takes per operand the extreme minimizing each component (the
    smallest swing, V, boost scaling and write cell delay, the largest
    drive) lower-bounds the component at every assist of the set.
    Every combining operation downstream (+., *., /., max — all on
    non-negative operands) is monotone under IEEE round-to-nearest, so
    the row, evaluated by {!complete} or {!scan}, lower-bounds every
    metrics field of every assist in the set with no epsilon.  A search
    may therefore skip a geometry whose bound already exceeds the
    incumbent without ever pruning the optimum, and prices bounds in
    the same allocation-free scan as real candidates. *)

val suffix_bounds : prepared array -> block:int -> prepared array
(** [suffix_bounds ps ~block] — element [j] bounds every assist from
    index [j * block] to the end (element 0 covers the whole array),
    folded per operand by min/max in one right-to-left pass.  A search
    evaluating a scan block-by-block can abandon the line after block
    [j] when bound [j + 1] already exceeds the incumbent: the suffix
    bound is admissible for exactly the points not yet evaluated, so
    the pruning stays exact as the incumbent tightens mid-scan.  Raises
    [Invalid_argument] on an empty array or non-positive [block]. *)

(** {1 Batched scan kernel}

    One grid geometry's whole assist scan evaluated into preallocated
    structure-of-arrays float buffers with zero per-candidate
    allocation: no [metrics] record is built per point — the caller
    reduces over the flat arrays and materializes {!complete} for the
    single winning index.  Each buffer slot [i] holds Equation (2)'s
    D_array, Equation (5)'s E_total and the EDP product for assist
    [ps.(i)], bit-identical to the corresponding [complete] fields
    (the loop re-runs the reference arithmetic in the reference
    association order; pinned by the QCheck property suite including
    [-0.0]/subnormal corners). *)

type scan_buffer

val scan_buffer : unit -> scan_buffer
(** Fresh buffer; grows on demand, so one per domain serves every scan
    length (pair with [Runtime.Pool.local]). *)

val scan : grid -> int -> prepared array -> scan_buffer -> unit
(** [scan grid i ps buf] evaluates geometry [i]'s whole scan into the
    buffer (length = array length). *)

val scan_slice :
  grid -> int -> prepared array -> scan_buffer -> lo:int -> hi:int -> unit
(** Evaluate indices [lo, hi): block-wise form for searches that
    interleave evaluation with suffix-bound early exit.  Slots below
    [lo] keep their previous contents.  Raises [Invalid_argument] when
    the geometry index is outside the grid or the range outside [ps]. *)

val scan_e_total : scan_buffer -> float array
(** The backing arrays themselves (no copy); valid indices are those
    of the last scan; contents are overwritten by the next scan. *)

val scan_d_array : scan_buffer -> float array
val scan_edp : scan_buffer -> float array
