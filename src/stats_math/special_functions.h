// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Special functions needed for Bayesian selectivity inference: the log-beta
// function, the regularized incomplete beta function I_x(a, b) (the cdf of
// the beta distribution), and its inverse. Implemented from scratch with the
// standard continued-fraction expansion (Lentz's method) plus a
// Newton-with-bisection-safeguard inverse; accurate to ~1e-12 over the
// parameter ranges used by the estimator (a, b up to ~1e6).

#ifndef ROBUSTQO_STATS_MATH_SPECIAL_FUNCTIONS_H_
#define ROBUSTQO_STATS_MATH_SPECIAL_FUNCTIONS_H_

namespace robustqo {
namespace math {

/// ln Γ(x) for x > 0 (wraps lgamma_r, which shares no global state).
double LogGamma(double x);

/// ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b); requires a, b > 0.
double LogBeta(double a, double b);

/// ln C(n, k); requires 0 <= k <= n.
double LogBinomialCoefficient(double n, double k);

/// Regularized incomplete beta function
///   I_x(a, b) = (1/B(a,b)) ∫₀ˣ t^{a-1} (1-t)^{b-1} dt
/// for a, b > 0 and x in [0, 1]. This is the cdf of Beta(a, b) at x.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Inverse of the regularized incomplete beta function: returns x such that
/// I_x(a, b) = p, for p in [0, 1]. This is the beta quantile function.
double InverseRegularizedIncompleteBeta(double a, double b, double p);

}  // namespace math
}  // namespace robustqo

#endif  // ROBUSTQO_STATS_MATH_SPECIAL_FUNCTIONS_H_
