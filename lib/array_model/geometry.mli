(** Array organization: the architecture-level optimization variables.

    An SRAM array holds M = n_r x n_c bits with n_r and n_c powers of two;
    W bits are accessed per cycle.  When n_c > W a column multiplexer
    (decoder + transmission gates) is present. *)

type t = {
  nr : int;      (** rows (cells per column / bitline) *)
  nc : int;      (** columns (cells per row / wordline) *)
  w : int;       (** access width in bits (the paper uses 64) *)
  n_pre : int;   (** precharger PFET fins *)
  n_wr : int;    (** write-buffer transmission-gate fins *)
}

val create : nr:int -> nc:int -> ?w:int -> n_pre:int -> n_wr:int -> unit -> t
(** @raise Invalid_argument unless n_r, n_c and w are powers of two,
    n_c >= 1, w >= 1, and the fin counts are positive. *)

val capacity_bits : t -> int

val row_address_bits : t -> int
(** log2 n_r. *)

val column_address_bits : t -> int
(** log2 (n_c / w), 0 when n_c <= w (no column mux). *)

val has_column_mux : t -> bool

val area : t -> float
(** Cell-array silicon area in m^2 (cell dimensions from {!Finfet.Tech});
    used by the aspect-ratio discussion and reporting, not by the EDP
    objective. *)

val aspect_ratio : t -> float
(** Physical width / height of the cell array. *)

val is_power_of_two : int -> bool
