"""Single gamma-series evaluation with recursively computed weights.

The convolution density is C sum_k delta_k g(x; rho + k, b1) where the
weights C*delta_k form a probability mass function on the non-negative
integers.  Truncation control uses that weight-mass interpretation: the
neglected tail is bounded by the remaining mass times the largest value
the gamma kernel can still take, which for the CDF is simply
G(y/b1; rho + K + 1) since G decreases in the shape argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .methods import WeightTable, check_point, converge, gamma_kernel_bound
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import DEFAULT_CONTROL, SeriesControl

__all__ = [
    "WeightDistribution",
    "build_weights",
    "extend_weights",
    "density",
    "cdf",
    "weight_pmf",
    "gamma_kernel_bound",
]


@dataclass(frozen=True)
class WeightDistribution:
    """Immutable snapshot of the series weights C*delta_k.

    c: the constant C = prod (b1/b_i)^{a_i}, in (0, 1].
    deltas: delta_0..delta_K from the exact recursion (delta_0 = 1).
    gammas: the recursion inputs gamma_1..gamma_K (index 0 unused, = 0).
    rho: total shape; beta1: minimum scale.
    """

    c: float
    deltas: np.ndarray
    gammas: np.ndarray
    rho: float
    beta1: float

    @property
    def upto(self) -> int:
        return self.deltas.shape[0] - 1

    def pmf(self, k: int) -> float:
        return self.c * float(self.deltas[k])

    def cumulative_mass(self) -> np.ndarray:
        return self.c * np.cumsum(self.deltas)


def _log_one_minus_q(spec: ConvolutionSpec) -> np.ndarray:
    """log(1 - b1/b_i) per component, -inf for the minimum-scale one."""
    scales = spec.scales
    with np.errstate(divide="ignore"):
        return np.log1p(-scales[0] / scales)


def _gamma_seq(spec: ConvolutionSpec, k_lo: int, k_hi: int) -> np.ndarray:
    """gamma_k = sum_i a_i (1 - b1/b_i)^k / k for k in [k_lo, k_hi]."""
    shapes = spec.shapes
    log_1mq = _log_one_minus_q(spec)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    # (1-q_i)^k via exp(k log1p(-q_i)) to avoid drift for q_i near 1.
    with np.errstate(invalid="ignore"):
        powers = np.exp(np.outer(k, log_1mq))
    powers[:, np.isneginf(log_1mq)] = 0.0
    return (powers @ shapes) / k


def build_weights(spec: ConvolutionSpec, upto: int) -> WeightDistribution:
    """Populate delta_0..delta_upto via the exact recursion."""
    spec = canonicalize(spec)
    if upto < 0:
        raise DomainError(f"upto must be >= 0, got {upto}")
    shapes = spec.shapes
    scales = spec.scales
    beta1 = float(scales[0])
    rho = spec.total_shape
    c = math.exp(float(np.sum(shapes * (math.log(beta1) - np.log(scales)))))

    gammas = np.zeros(upto + 1)
    if upto >= 1:
        gammas[1:] = _gamma_seq(spec, 1, upto)
    deltas = np.empty(upto + 1)
    deltas[0] = 1.0
    ig = np.arange(upto + 1, dtype=float) * gammas  # i * gamma_i
    for k in range(upto):
        deltas[k + 1] = (ig[1 : k + 2] @ deltas[k::-1]) / (k + 1)
    return WeightDistribution(c, deltas, gammas, rho, beta1)


def extend_weights(
    weights: WeightDistribution, spec: ConvolutionSpec, upto: int
) -> WeightDistribution:
    """Return a snapshot extended to `upto`; existing entries are reused."""
    if upto <= weights.upto:
        return weights
    spec = canonicalize(spec)
    old = weights.upto
    gammas = np.zeros(upto + 1)
    gammas[: old + 1] = weights.gammas
    gammas[old + 1 :] = _gamma_seq(spec, old + 1, upto)
    deltas = np.empty(upto + 1)
    deltas[: old + 1] = weights.deltas
    ig = np.arange(upto + 1, dtype=float) * gammas
    for k in range(old, upto):
        deltas[k + 1] = (ig[1 : k + 2] @ deltas[k::-1]) / (k + 1)
    return WeightDistribution(weights.c, deltas, gammas, weights.rho, weights.beta1)


def _weight_count_estimate(spec: ConvolutionSpec) -> int:
    """Initial truncation point from the negative-binomial weight cumulants."""
    b1 = spec.components[0].scale
    mean = var = 0.0
    for c in spec.components:
        q = b1 / c.scale
        mean += c.shape * (1.0 - q) / q
        var += c.shape * (1.0 - q) / q**2
    return int(mean + 10.0 * math.sqrt(var) + 60.0)


_LOG_1E_8 = math.log(1e-8)


def _log_mass_past(spec: ConvolutionSpec, masses: np.ndarray) -> float:
    """log of a bound on the weight mass past the table `masses`.

    The weights are the law of a sum of negative binomials NB(a_i, q_i),
    q_i = b1/b_i, whose generating function
    P(t) = prod_i (q_i / (1 - (1 - q_i) t))^a_i is finite for t < 1/r,
    r = max_i (1 - q_i).  Each mass w_k is at most P(t) t^-k, so those past
    index K sum to at most P(t) t^-(K+1) / (1 - 1/t) for every
    1 < t < 1/r; t is the minimizer for one NB of size sum a_i and ratio
    r.  That bound does not round to zero below 1e-16, as 1 - sum(masses)
    does.  Where 1 - sum(masses) exceeds 1e-8 it is exact to far better
    than 1 % (its rounding error is near K * 1e-16), and 1.01 times it is
    the tighter bound.
    """
    b1 = spec.components[0].scale
    others = spec.components[1:]
    k = float(masses.shape[0])
    r = max(1.0 - b1 / c.scale for c in others)
    t = k / ((k + sum(c.shape for c in others)) * r)
    log_bound = 0.0
    if t > 1.0:
        log_p = sum(
            c.shape * (math.log(b1 / c.scale) - math.log1p((b1 / c.scale - 1.0) * t))
            for c in others
        )
        log_bound = min(0.0, log_p - k * math.log(t) - math.log1p(-1.0 / t))
    if log_bound > _LOG_1E_8:
        rest = 1.0 - float(masses.sum())
        if rest > 1e-8:
            return min(log_bound, math.log(1.01 * rest))
    return log_bound


def first_weights(spec: ConvolutionSpec, ctrl: SeriesControl) -> WeightDistribution:
    """The weights `density` and `cdf` start from: delta_0..delta_K with K
    from the weight cumulants.  (`ctrl` is unused; it keeps the signature
    of the other routes' table builders.)"""
    return build_weights(spec, _weight_count_estimate(spec))


def _table(w: WeightDistribution) -> WeightTable:
    return WeightTable(w.c * w.deltas, w.rho, w.beta1, w)


def _grow(
    spec: ConvolutionSpec, ctrl: SeriesControl, table: WeightTable
) -> WeightTable | None:
    """The next stage: half the table's size plus 64 more weights, up to
    ctrl.max_terms."""
    w = table.source
    if w.upto >= ctrl.max_terms:
        return None
    return _table(extend_weights(w, spec, min(int(w.upto * 1.5) + 64, ctrl.max_terms)))


def _series(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl,
    weights: WeightDistribution | None,
    quantity: str,
) -> EvalResult:
    """Evaluate the mixture, extending the weights until the tail is small."""
    spec, done = check_point(spec, x, quantity)
    if done is not None:
        return done
    w = weights if weights is not None else first_weights(spec, ctrl)
    return converge(quantity, spec, x, ctrl, _table(w), _grow, _log_mass_past)


def density(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightDistribution | None = None,
) -> EvalResult:
    """Density f(x) = C sum_k delta_k g(x; rho + k, b1).

    Stops once a bound on the remaining weight mass times the maximum
    achievable kernel value falls below rel_tol relative to the partial
    sum.  Pass a prebuilt `weights` snapshot to amortize the recursion
    across calls (`methods.evaluate` does, once per request).
    """
    return _series(spec, x, ctrl, weights, "density")


def cdf(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightDistribution | None = None,
) -> EvalResult:
    """CDF F(y) = C sum_k delta_k G(y; rho + k, b1) with a rigorous tail.

    tail_bound = (1 - C sum_{k<=K} delta_k) G(y/b1; rho + K + 1), valid
    since G decreases in the shape argument.
    """
    return _series(spec, y, ctrl, weights, "cdf")


def weight_pmf(
    spec: ConvolutionSpec,
    k: int,
    weights: WeightDistribution | None = None,
) -> float:
    """Mass C*delta_k of the discrete weight distribution at k."""
    if k < 0:
        raise DomainError(f"weight_pmf requires k >= 0, got {k}")
    spec = canonicalize(spec)
    if weights is None or weights.upto < k:
        weights = build_weights(spec, k)
    return weights.pmf(k)
