(** The common search-strategy interface.

    One dispatch point over the five engines, with the common knobs
    (space, objective, deadline, budget, [rng_seed]) in
    one signature; every engine runs on the process-wide pool
    ({!Runtime.Pool.default}).  {!Framework.optimize}, the CLI's
    [optimize --method] and the serve [optimize] endpoint all route
    through {!run}; driving an engine through it is observationally
    identical to calling the engine directly (the backfill tests pin
    the full-sweep checksum [67fd83cd67998ac0] through
    [run Exhaustive]).

    The contract is enforced centrally rather than engine by engine:
    the exhaustive engine applies the knobs itself, and the four
    heuristics run on {!Line_cache}, which applies the yield pins
    to every scan, checks [deadline] once per batch of scans and
    journals incumbents under the engine's name.
    Engine-specific knobs (annealing schedules, population sizes,
    kernels) stay on the engines' own entry points; [run] leaves them
    at their defaults. *)

type t =
  | Exhaustive    (** the bit-deterministic oracle (staged kernel) *)
  | Local_search  (** coordinate descent with deterministic restarts *)
  | Anneal        (** simulated annealing, deterministic per seed *)
  | Nsga2         (** crowded non-dominated GA + descent polish *)
  | Surrogate     (** quadratic model + expected improvement + polish *)

val name : t -> string
(** "exhaustive" / "local" / "anneal" / "nsga2" / "surrogate" — the
    CLI flag values and the wire protocol's spellings. *)

val of_name : string -> t option

val deterministic : t -> bool
(** True when the engine ignores [rng_seed] (exhaustive, local
    search) — the framework cache normalizes the seed away for these
    so repeated queries hit. *)

val default_seed : int
(** 42, matching the CLI's historical [anneal --seed] default. *)

val parse_method : string -> (Space.method_ option * t option) option
(** The [--method] / wire grammar: ["m1"]/["m2"] name a voltage-pin
    policy (strategy unchanged), a strategy name alone picks the
    engine (policy unchanged), ["POLICY:STRATEGY"] (e.g. ["m1:nsga2"])
    sets both.  [None] on anything else.  Case-insensitive. *)

val run :
  t ->
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?w:int ->
  ?stage_ctx:Array_model.Array_eval.ctx ->
  ?deadline:float ->
  ?budget:int ->
  ?rng_seed:int ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** Run one engine with the common knobs, at the {!Yield.solve} pins.
    Every engine honours [space], [objective], [w] and [deadline]
    (absolute {!Obs.Clock.now} seconds; once passed the run
    raises {!Exhaustive.Deadline_exceeded}).  [stage_ctx] is the
    exhaustive kernel's staging store (see {!Exhaustive.search}); it
    never changes an answer.  The only per-engine exceptions:
    - [budget] caps the scan points of [Nsga2] and [Surrogate]; the
      other engines stop on their own criteria and ignore it;
    - [rng_seed] seeds [Anneal], [Nsga2] and [Surrogate]; [Exhaustive]
      and [Local_search] are deterministic and ignore it.
    All engines return the same {!Exhaustive.result} shape (golden-
    diffed by the backfill tests). *)
