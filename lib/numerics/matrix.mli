(** Small dense matrices (row-major float arrays) for MNA Jacobians and
    least-squares normal equations.  Circuit matrices here are tiny (a 6T
    cell has 2-4 unknown nodes), so dense storage is the right tool; the
    sparse path ({!Sparse}) exists for larger array-level systems. *)

type t
(** A dense [rows] x [cols] matrix. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Copies a rectangular array-of-rows. Requires equal row lengths. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i).(j) <- m.(i).(j) +. x] — the MNA
    "stamp" primitive. *)

val copy : t -> t
val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** Copy every entry of [src] into [dst] (same shape). *)

val storage : t -> float array
(** The row-major backing array itself, not a copy: entry (i, j) is
    element [i * cols + j].  For in-place kernels (LU, MNA stamping). *)

val mat_vec : t -> float array -> float array
(** Matrix-vector product. *)

val transpose : t -> t
val mat_mul : t -> t -> t

val pp : Format.formatter -> t -> unit
