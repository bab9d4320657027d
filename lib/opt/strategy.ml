(* One name, one signature, five engines.

   Everything above lib/opt — {!Framework.optimize}, the CLI's
   [optimize --method], the serve [optimize] endpoint — dispatches on
   this module instead of hard-coding the exhaustive engine.  [run]
   forwards the same common knobs to every engine; the four heuristics
   hand them to {!Line_cache}, which enforces them, so there is no
   per-engine table of ignored knobs to keep in sync.  Engine-specific
   knobs (schedules, populations, kernels, checkpoint journals) stay on
   the engines' own entry points at their defaults, so driving an
   engine through the dispatch is observationally identical to calling
   it directly (the backfill tests pin this: the full-sweep checksum
   67fd83cd67998ac0 must reproduce through [run Exhaustive]). *)

type t =
  | Exhaustive
  | Local_search
  | Anneal
  | Nsga2
  | Surrogate

let name = function
  | Exhaustive -> "exhaustive"
  | Local_search -> "local"
  | Anneal -> "anneal"
  | Nsga2 -> "nsga2"
  | Surrogate -> "surrogate"

let of_name = function
  | "exhaustive" -> Some Exhaustive
  | "local" -> Some Local_search
  | "anneal" -> Some Anneal
  | "nsga2" -> Some Nsga2
  | "surrogate" -> Some Surrogate
  | _ -> None

let deterministic = function
  | Exhaustive | Local_search -> true
  | Anneal | Nsga2 | Surrogate -> false

(* The CLI's and the wire protocol's `method` grammar:
   "m1" / "m2" name a voltage-pin policy, a strategy name alone picks
   the search engine (pin policy unchanged), and "POLICY:STRATEGY"
   (e.g. "m1:nsga2") sets both. *)
let parse_method s =
  let s = String.lowercase_ascii (String.trim s) in
  let pin = function
    | "m1" -> Some Space.M1
    | "m2" -> Some Space.M2
    | _ -> None
  in
  match String.index_opt s ':' with
  | Some i ->
    let left = String.sub s 0 i in
    let right = String.sub s (i + 1) (String.length s - i - 1) in
    (match (pin left, of_name right) with
    | Some p, Some st -> Some (Some p, Some st)
    | _ -> None)
  | None -> (
    match pin s with
    | Some p -> Some (Some p, None)
    | None -> (
      match of_name s with
      | Some st -> Some (None, Some st)
      | None -> None))

let default_seed = 42

let run strategy ?space ?objective ?pool ?w ?stage_ctx ?deadline ?budget
    ?(rng_seed = default_seed) ~env ~capacity_bits ~method_ () =
  match strategy with
  | Exhaustive ->
    Exhaustive.search ?space ?objective ?pool ?w ?stage_ctx ?deadline ~env
      ~capacity_bits ~method_ ()
  | Local_search ->
    Local_search.search ?space ?objective ?pool ?w ?deadline ~env ~capacity_bits
      ~method_ ()
  | Anneal ->
    Anneal.search ?space ?objective ?pool ?w ?deadline ~seed:rng_seed ~env
      ~capacity_bits ~method_ ()
  | Nsga2 ->
    Nsga2.search ?space ?objective ?pool ?w ?budget ~seed:rng_seed ?deadline
      ~env ~capacity_bits ~method_ ()
  | Surrogate ->
    Surrogate.search ?space ?objective ?pool ?w ?budget ~seed:rng_seed
      ?deadline ~env ~capacity_bits ~method_ ()
