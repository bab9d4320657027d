(** Plain-text table rendering for experiment reports (aligned columns,
    suitable for terminal diffing against the paper's tables). *)

type t
(** A table under construction. *)

val create : columns:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument on column-count mismatch. *)

val add_separator : t -> unit

val print : ?title:string -> t -> unit
(** The table to stdout (aligned columns, a rule under the header), with
    an optional underlined title. *)
