(** Datasheet generation for an optimized design.

    The optimizer's output is a tuple of parameters; what a design team
    consumes is a datasheet: organization, rails, the margins actually
    achieved at those rails, per-component timing and energy breakdowns
    (the Table 2/3 terms evaluated at the design point), silicon area,
    and a transient spot-check of the critical bitline path. *)

val print : Framework.optimized -> unit
