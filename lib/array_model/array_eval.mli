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
  dcdc_overhead : float;   (** assist-rail energy scaling for DC-DC
                               inefficiency (paper: unspecified; 1.25) *)
  accounting : accounting;
}

val make_env :
  ?alpha:float ->
  ?beta:float ->
  ?dcdc_overhead:float ->
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

val evaluate : env -> Geometry.t -> Components.assist -> metrics

(** {1 Attribution}

    Where an evaluated design's energy and delay actually go,
    component by component — the explanation behind the winner, not a
    new model.  Every list below carries the Table 3 terms {e in the
    exact order [evaluate] folds them}, so re-summing a list with
    {!refold} reproduces the corresponding [metrics] field bit for bit
    (OCaml [+.] is left-associative; {!refold} seeds the fold with the
    first term to preserve the association).  The QCheck property
    suite holds {!attribute} and [evaluate] together on random
    geometries, assists and both accounting modes. *)

type attribution = {
  at_metrics : metrics;  (** the reference [evaluate] result *)
  at_alpha : float;
  at_beta : float;
  (* Energy terms per access, in [evaluate]'s fold order.  Under
     [Physical] accounting, multiplicity-scaled terms appear as the
     single products the reference path adds (e.g. all-columns
     bitline+precharge), never re-distributed. *)
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

val refold : (string * float) list -> float
(** Left fold of [+.] seeded with the first term ([0.0] on an empty
    list) — the association [evaluate] uses. *)

val attribution_consistent : attribution -> bool
(** Re-derive [e_read], [e_write], [e_switching], [e_total], [d_read],
    [d_write], [d_array] and [edp] from the attribution lists and
    compare each against [at_metrics] {e bitwise}
    ([Int64.bits_of_float] equality).  [attribute] guarantees [true];
    exposed so tests and the [explain] command can assert it. *)

(** {1 Staged evaluation kernel}

    [evaluate] recomputes per-(geometry, assist) work that depends on
    only one of the two coordinates.  The staged kernel factors it:
    {!stage} precomputes everything geometry-determined (decoders, wire
    capacitances, assist-blind Table 2 components, segment prefixes),
    {!prepare} everything assist-determined (rail drive currents, write
    cell delay), and {!complete} finishes the cross terms — a few dozen
    float operations with no table lookups or memo locks.  Results are
    bit-identical to [evaluate]: every hoisted leaf comes from the same
    expression as the reference path and the combining arithmetic runs
    in the same association order (asserted field-for-field by the
    QCheck property suite). *)

type staged
(** Geometry-resolved evaluation state: [evaluate] with the assist-
    dependent holes left open. *)

type prepared
(** Assist-resolved evaluation state: rail currents and the write cell
    delay for one assist, reusable across every geometry. *)

val stage : env -> Geometry.t -> staged
(** Hoist all geometry-only computation, through the context
    {!ctx_for} registers for [env]: a geometry that context staged
    before comes back from its table.  Every record actually staged,
    here or by {!stage_array}, increments the ["array_eval.stage"]
    telemetry counter. *)

val prepare : env -> Components.assist -> prepared
(** Hoist all assist-only computation (four rail currents and the write
    cell delay). *)

val complete : staged -> prepared -> metrics
(** Finish the evaluation; bit-identical to
    [evaluate env geometry assist] for the matching inputs. *)

val staged_geometry : staged -> Geometry.t

(** {1 Staging context: the staging caches}

    The assist-blind components' drive currents are environment
    constants (the FinFET device-model draws depend on the geometry
    only through the small integers n_wr/n_pre).  A [ctx] hoists them
    once per environment and owns the only two staging caches, under
    one lock: its last four staged grids, found by the identity of the
    grid array ({!stage_array}), and a bounded table of single staged
    geometries ({!stage}).  Records built through a context are
    bit-identical to [stage]'s (the hoisted draws come from the exact
    [Currents] functions). *)

type ctx

val make_ctx : env -> ctx
(** Fresh context, with no staged grid or geometry, for this
    environment. *)

val ctx_for : env -> ctx
(** The process-wide context registered for this environment value
    (physical equality — environments are built once and shared).
    Creates and registers one on first use; the registry holds the most
    recent handful of environments.  {!stage} stages through it. *)

val ctx_env : ctx -> env

val stage_array : ctx -> Geometry.t array -> staged array
(** Stage a whole candidate grid.  The context keeps its last four
    results, found by the {e identity} of the array: searches that
    share one memoized grid (the two methods of a Table 4 capacity,
    queries differing only in V_SSC) stage it once.  Element [i] is
    bit-identical to [stage]'s record for [gs.(i)], whatever the
    array's order; the result is immutable shared state — callers must
    only read it. *)

val reset_staging : unit -> unit
(** Drop every registered context, and with them every staged grid and
    geometry (benchmarks call this between runs so cold-path
    measurements stay cold). *)

(** {1 Admissible lower envelope}

    Over a set of assists, taking per Equation (1) operand the extreme
    that minimizes each component (smallest dV and V, largest I) gives
    component values lower-bounding the component at every enveloped
    assist.  Every combining operation downstream (+., *., /., max — all
    on non-negative operands) is monotone under IEEE round-to-nearest,
    so the envelope's {!bound_prepared} point, evaluated by {!complete}
    or {!scan}, lower-bounds every metrics field of every enveloped
    assist with no epsilon.  A search may therefore skip a
    geometry whose bound already exceeds the incumbent without ever
    pruning the optimum. *)

type envelope

val bound_prepared : env -> envelope -> prepared
(** The envelope as a scan point: a [prepared] whose operands are the
    envelope's extremes (assist slot = [Components.no_assist]).  A
    mixed-boost envelope takes the smaller of the two possible
    WL-overdrive write-energy scalings.  Searches thus fold bound
    evaluation into the same allocation-free scan as real
    candidates. *)

val suffix_envelopes : prepared array -> block:int -> envelope array
(** [suffix_envelopes ps ~block] — element [j] envelopes every assist
    from index [j * block] to the end (element 0 covers the whole
    array).  Built by one right-to-left incremental fold.  A search
    evaluating a scan block-by-block can abandon the line after block
    [j] when the bound of envelope [j + 1] already exceeds the
    incumbent: the suffix bound is admissible for exactly the points
    not yet evaluated, so the pruning stays exact as the incumbent
    tightens mid-scan.  Raises [Invalid_argument] on an empty array or
    non-positive [block]. *)

(** {1 Batched scan kernel}

    One geometry's whole assist scan evaluated into preallocated
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

val scan : staged -> prepared array -> scan_buffer -> unit
(** Evaluate the whole scan into the buffer (length = array length). *)

val scan_slice : staged -> prepared array -> scan_buffer -> lo:int -> hi:int -> unit
(** Evaluate indices [lo, hi): block-wise form for searches that
    interleave evaluation with suffix-bound early exit.  Slots below
    [lo] keep their previous contents. *)

val scan_e_total : scan_buffer -> float array
(** The backing arrays themselves (no copy); valid indices are those
    of the last scan; contents are overwritten by the next scan. *)

val scan_d_array : scan_buffer -> float array
val scan_edp : scan_buffer -> float array
