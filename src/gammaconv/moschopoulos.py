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

from .errors import ConvergenceError, DomainError
from .methods import check_point, gamma_kernel_bound, mixture_cdf, mixture_density
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
    qs = spec.scales[0] / spec.scales
    mean = float(np.sum(spec.shapes * (1.0 - qs) / qs))
    var = float(np.sum(spec.shapes * (1.0 - qs) / qs**2))
    return int(mean + 10.0 * math.sqrt(var) + 60.0)


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
    mixture = mixture_cdf if quantity == "cdf" else mixture_density
    w = weights if weights is not None else build_weights(spec, _weight_count_estimate(spec))
    while True:
        value, tail = mixture(w.c * w.deltas, w.rho, w.beta1, x)
        if tail <= ctrl.rel_tol * max(value, 5e-324):
            return EvalResult(value, w.upto + 1, tail)
        if w.upto >= ctrl.max_terms:
            raise ConvergenceError(
                f"gamma series {quantity} not converged after {w.upto + 1} terms "
                f"(tail bound {tail:.3e})",
                terms_used=w.upto + 1,
                last_term=tail,
            )
        w = extend_weights(w, spec, min(int(w.upto * 1.5) + 64, ctrl.max_terms))


def density(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightDistribution | None = None,
) -> EvalResult:
    """Density f(x) = C sum_k delta_k g(x; rho + k, b1).

    Stops once the remaining weight mass times the maximum achievable
    kernel value falls below rel_tol relative to the partial sum.  Pass a
    prebuilt `weights` snapshot to amortize the recursion across calls.
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
