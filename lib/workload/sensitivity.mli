(** Workload sensitivity of the co-optimization.

    Feeding a trace's measured (alpha, beta) into the array model and
    re-running the search shows how the optimum moves with the workload:
    idle-dominated traces amplify the leakage term (and with it the HVT
    advantage), write-heavy traces reweight the wordline-overdrive
    energy, and read-heavy traces reward the negative-Gnd assist. *)

type study_row = {
  name : string;
  alpha : float;
  beta : float;
  vssc : float;          (** chosen negative-Gnd level *)
  d_array : float;
  e_total : float;
  edp : float;
  hvt_advantage : float; (** 1 - EDP_hvt / EDP_lvt at this workload *)
}

val study :
  ?length:int ->
  capacity_bits:int ->
  unit ->
  study_row list
(** One row per {!Trace.named_profiles} entry: generate the trace (seed
    11), measure (alpha, beta), co-optimize both flavors under M2 over
    {!Opt.Space.reduced} and report the HVT design plus its advantage
    over LVT. *)
