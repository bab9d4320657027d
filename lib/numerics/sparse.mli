(** Sparse matrices in triplet (builder) and CSR (solver) form.

    MNA matrices of SRAM peripheral netlists (decoder trees, long bitlines
    discretized into RC ladders) are large and very sparse; this module
    provides the storage that {!Sparse_lu} factors, so those systems never
    densify. *)

module Builder : sig
  type t
  (** Accumulating triplet store; duplicate (i,j) entries sum, matching MNA
      stamping semantics. *)

  val create : n:int -> t
  (** Square [n] x [n] builder. *)

  val add : t -> int -> int -> float -> unit
  (** [add b i j x] stamps [x] into entry (i,j). *)
end

type t
(** Compressed sparse row matrix. *)

val of_builder : Builder.t -> t
(** Compress, summing duplicates and dropping explicit zeros. *)

val dim : t -> int

val iter : t -> (int -> int -> float -> unit) -> unit
(** [iter a f] applies [f row col value] to every stored entry, row by
    row in column order. *)
