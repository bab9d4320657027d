(** Dense LU factorization with partial pivoting, the workhorse behind the
    MNA DC solver and least-squares fits. *)

exception Singular
(** Raised when the matrix is numerically singular (pivot below threshold). *)

type factors
(** An LU factorization of a square matrix (with row-permutation record). *)

val factorize : Matrix.t -> factors
(** @raise Singular on rank-deficient input.  Does not mutate the input. *)

val factorize_in_place : Matrix.t -> perm:int array -> factors
(** {!factorize} without the copy: the matrix is overwritten by its
    factors and [perm] (length = rows) by the row permutation; the
    returned factors share both.  Same pivoting, same operations in the
    same order, so the factors are bit-identical to {!factorize}'s.
    @raise Singular as {!factorize}, leaving the matrix partly
    eliminated. *)

val solve_factored : factors -> float array -> float array
(** Back-substitution against an existing factorization. *)

val solve : Matrix.t -> float array -> float array
(** One-shot [factorize] + [solve_factored]. *)

val solve_least_squares : Matrix.t -> float array -> float array
(** Minimum-norm solution of an overdetermined system via normal equations
    (A^T A x = A^T b).  Adequate for the small, well-conditioned fits used
    here (power-law current fits, polynomial delay fits). *)
