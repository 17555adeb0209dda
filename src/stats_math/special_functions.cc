#include "stats_math/special_functions.h"

#include <math.h>

#include <cmath>
#include <limits>

#include "util/macros.h"

namespace robustqo {
namespace math {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;

// Continued-fraction expansion for the incomplete beta function, evaluated
// with the modified Lentz algorithm. Converges fast when x < (a+1)/(a+b+2);
// callers use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
double BetaContinuedFraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const int m2 = 2 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return h;
}

}  // namespace

double LogGamma(double x) {
  RQO_CHECK(x > 0.0);
  // lgamma_r, not std::lgamma: glibc's lgamma stores the sign of Γ(x) in
  // the process-global `signgam`, a data race when estimators run on
  // several TaskPool workers at once.
  int sign = 0;
  return lgamma_r(x, &sign);
}

double LogBeta(double a, double b) {
  RQO_CHECK(a > 0.0 && b > 0.0);
  return LogGamma(a) + LogGamma(b) - LogGamma(a + b);
}

double LogBinomialCoefficient(double n, double k) {
  RQO_CHECK(k >= 0.0 && k <= n);
  return LogGamma(n + 1.0) - LogGamma(k + 1.0) - LogGamma(n - k + 1.0);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  RQO_CHECK(a > 0.0 && b > 0.0);
  RQO_CHECK(x >= 0.0 && x <= 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double log_front =
      a * std::log(x) + b * std::log1p(-x) - LogBeta(a, b);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - std::exp(b * std::log1p(-x) + a * std::log(x) - LogBeta(b, a)) *
                   BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double InverseRegularizedIncompleteBeta(double a, double b, double p) {
  RQO_CHECK(a > 0.0 && b > 0.0);
  RQO_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;

  // Initial guess: mean of the distribution, clamped away from {0, 1}.
  double x = a / (a + b);
  x = std::fmin(std::fmax(x, 1e-12), 1.0 - 1e-12);

  // Newton iterations with a [lo, hi] bisection safeguard. The derivative
  // of I_x(a,b) in x is the beta pdf, which is available in closed form.
  double lo = 0.0;
  double hi = 1.0;
  const double log_beta = LogBeta(a, b);
  for (int iter = 0; iter < 200; ++iter) {
    const double f = RegularizedIncompleteBeta(a, b, x) - p;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    if (std::fabs(f) < 1e-14) break;
    const double log_pdf =
        (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) - log_beta;
    double step = f / std::exp(log_pdf);
    double next = x - step;
    if (!(next > lo && next < hi)) {
      next = 0.5 * (lo + hi);  // Newton escaped the bracket: bisect.
    }
    if (std::fabs(next - x) < 1e-16 * std::fmax(1.0, std::fabs(x))) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

}  // namespace math
}  // namespace robustqo
