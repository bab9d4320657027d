(** Descriptive statistics over float arrays, used by Monte Carlo yield
    analysis and benchmark reporting. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val stddev : float array -> float
(** Square root of [variance]. *)

val mu_minus_k_sigma : float array -> k:float -> float
(** [mean - k * stddev], the yield metric used for SRAM margin analysis. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** Gaussian cumulative distribution (Abramowitz-Stegun 7.1.26 erf
    approximation, |error| < 1.5e-7): the tail calculus behind cell
    failure probabilities. *)

val binomial_cdf : n:int -> p:float -> int -> float
(** P(X <= k) for X ~ Binomial(n, p), summed in log space — the
    spare-row repair yield formula. *)
