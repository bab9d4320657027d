(** Sparse LU factorization with partial pivoting.

    Circuit (MNA) matrices grow with the netlist while staying very
    sparse; dense LU turns a 500-node array netlist into minutes of
    arithmetic.  This factorization keeps rows as sparse vectors, pivots
    by magnitude, and accepts fill-in — no reordering heuristics, which is
    adequate for the banded-ish structure circuit node numbering
    produces (the test suite includes a 1000-node ladder).

    Shares {!Lu.Singular} for rank-deficient inputs. *)

val solve : Sparse.t -> float array -> float array
(** @raise Lu.Singular when no acceptable pivot exists. *)
