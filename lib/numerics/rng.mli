(** Deterministic pseudo-random number generation.

    A small, explicitly-seeded generator (xoshiro256 "star-star") so Monte Carlo
    analyses are reproducible across runs and machines.  No hidden global
    state: every consumer carries its own [t]. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed via splitmix64
    expansion.  Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val uniform : t -> float
(** Uniform draw in [0, 1). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw via the Box-Muller transform. *)

val int_below : t -> int -> int
(** [int_below t n] draws uniformly from 0..n-1. Requires [n > 0]. *)

val split : t -> t
(** Derive an independent generator (for parallel sub-streams). *)
