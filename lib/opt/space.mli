(** The co-optimization search space and voltage-pin policies.

    Variables (Section 4): V_SSC in {0, -10, ..., -240 mV}, n_r in
    {2 .. 1024}, N_pre in {1 .. 50}, N_wr in {1 .. 20}; n_c = M / n_r.
    V_DDC and V_WL are pinned by {!Yield}.

    Methods (Section 5):
    - M1: one extra voltage level only — V_DDC = V_WL = max(minimums),
      V_SSC forced to 0;
    - M2: unrestricted levels — V_DDC and V_WL at their own minimums
      (merged into one level when within 20 mV, as the paper does for
      6T-HVT), V_SSC free. *)

type method_ = M1 | M2

val method_name : method_ -> string

type t = {
  vssc_values : float array;
  nr_values : int array;
  n_pre_values : int array;
  n_wr_values : int array;
}

val default : t
(** The paper's ranges. *)

val reduced : t
(** A coarser grid (every other V_SSC step, power-of-two-ish fin steps)
    for quick runs and tests; the optimum it finds is within a few percent
    of the full search. *)

type pins = {
  vddc : float;
  vwl : float;
  vssc_allowed : bool;   (** false under M1 *)
  extra_levels : int;    (** voltage pins beyond Vdd (reporting) *)
}

(** A query field {!check} can refuse. *)
type field = Capacity_bits | W | Vssc_values | Nr_values | N_pre_values | N_wr_values

val check : w:int -> capacity_bits:int -> t -> (unit, field * string) result
(** [Ok ()] when every search over [space] at this capacity and word
    width is well-posed; otherwise the first offending field and a reason
    naming its value.  It requires:
    - [capacity_bits] and [w] positive powers of two;
    - each axis non-empty, at most 256 values long and strictly monotone
      in {!default}'s direction (V_SSC decreasing, the integer axes
      increasing), so no value repeats;
    - every V_SSC finite and inside the span of {!default}'s, the
      paper's negative-Gnd range [-0.24, 0] V; every n_r a power of two;
      fin counts in 1..1024, about 20x the default's largest;
    - at least one candidate geometry, and none needing more row or
      column address bits than {!Array_model.Periphery.max_address_bits}.
      A column-bit excess is [W]'s fault when the same query passes at
      w = 64, and [Capacity_bits]' otherwise;
    - at most 65,536 candidate geometries, 6.5x the default's 10,000.
      An excess is the longer fin axis' fault ([N_pre_values] on a
      tie).

    All of it is decided from the axes' bounds and lengths, without
    enumerating geometries.

    The CLI and the serve wire check every query here, before any search
    runs. *)

val pins_for : method_ -> Yield.levels -> pins

val assist_of : pins -> vssc:float -> Array_model.Components.assist
(** Clamps V_SSC to 0 when the policy forbids it. *)

(** What every engine scans once yield has pinned V_DDC and V_WL. *)
type scan_setup = {
  levels : Yield.levels;
  pins : pins;
  vssc_axis : float array;  (** [{0}] when the pins forbid V_SSC *)
  assists : Array_model.Components.assist array;
      (** one per [vssc_axis] value *)
  rows : int array;  (** the n_r values whose M / n_r is a power of two *)
}

val scan_setup :
  ?levels:Yield.levels -> flavor:Finfet.Library.flavor -> capacity_bits:int ->
  method_ -> t -> scan_setup
(** The pins of [method_] at [levels] (default {!Yield.solve} of the
    flavor), with the axes they leave.  The exhaustive engine and
    {!Line_cache} both start here.
    @raise Invalid_argument if the capacity is not a power of two or
    holds no n_r of the space. *)

val candidate_geometries :
  ?w:int -> t -> capacity_bits:int -> Array_model.Geometry.t list
(** All (n_r, n_c = M / n_r, N_pre, N_wr) combinations with both dimensions
    powers of two and n_r within the grid. *)

val size : ?w:int -> t -> capacity_bits:int -> method_ -> int
(** Number of design points the exhaustive search will visit. *)
