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

import numpy as np

from .errors import ConvergenceError, DomainError
from .methods import (
    _LOG_TINY, NBSumLaw, WeightLaw, finite_cumulants, log_weight_constant, mixture_point,
)
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import DEFAULT_CONTROL, SeriesControl

__all__ = [
    "WeightDistribution",
    "build_weights",
    "extend_weights",
    "density",
    "cdf",
]


class WeightDistribution(NBSumLaw):
    """The series weights C*delta_k from the exact recursion: a prefix of
    the exact weight law that grows by running the recursion on.

    c: the constant C = prod (b1/b_i)^{a_i}, in (0, 1].
    deltas: delta_0..delta_K from the exact recursion (delta_0 = 1).
    gammas: the recursion inputs gamma_1..gamma_K (index 0 unused, = 0).
    masses = c * deltas; rho: total shape; beta1: minimum scale.
    """

    def __init__(
        self, c: float, deltas: np.ndarray, gammas: np.ndarray, spec: ConvolutionSpec
    ):
        super().__init__(c * deltas, spec)
        self.c = c
        self.deltas = deltas
        self.gammas = gammas

    @property
    def upto(self) -> int:
        return self.deltas.shape[0] - 1

    def grow(self, upto: int) -> WeightDistribution:
        """delta_0..delta_upto, the recursion run on past this one."""
        return extend_weights(self, self.spec, upto)


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


def _recurse(
    c: float, deltas: np.ndarray, gammas: np.ndarray, spec: ConvolutionSpec, upto: int
) -> WeightDistribution:
    """Run the recursion on from delta_0..delta_K and gamma_0..gamma_K up
    to `upto` >= K."""
    old = deltas.shape[0] - 1
    gammas = np.concatenate((gammas, _gamma_seq(spec, old + 1, upto)))
    deltas = np.concatenate((deltas, np.empty(upto - old)))
    ig = np.arange(upto + 1, dtype=float) * gammas  # i * gamma_i
    for k in range(old, upto):
        deltas[k + 1] = (ig[1 : k + 2] @ deltas[k::-1]) / (k + 1)
    return WeightDistribution(c, deltas, gammas, spec)


def build_weights(spec: ConvolutionSpec, upto: int) -> WeightDistribution:
    """Populate delta_0..delta_upto via the exact recursion.

    Raises ConvergenceError, before any step, where C is below the
    smallest normal double: the deltas, masses over C, would overflow."""
    spec = canonicalize(spec)
    if upto < 0:
        raise DomainError(f"upto must be >= 0, got {upto}")
    log_c = log_weight_constant(spec)
    if log_c < _LOG_TINY:
        raise ConvergenceError(
            f"recursion constant C = exp({log_c:.6g}) is below the smallest normal double, "
            "so its weights would overflow; use nbsum",
            terms_used=0,
        )
    return _recurse(math.exp(log_c), np.ones(1), np.zeros(1), spec, upto)


def extend_weights(
    weights: WeightDistribution, spec: ConvolutionSpec, upto: int
) -> WeightDistribution:
    """Return a snapshot extended to `upto`; existing entries are reused."""
    if upto <= weights.upto:
        return weights
    return _recurse(weights.c, weights.deltas, weights.gammas, canonicalize(spec), upto)


def _weight_count_estimate(spec: ConvolutionSpec, cap: float = math.inf) -> int:
    """Initial truncation point from the negative-binomial weight cumulants
    (`methods.finite_cumulants`, which raises where they are infinite), at
    most `cap`."""
    mean, var = finite_cumulants(spec)
    return int(min(mean + 10.0 * math.sqrt(var) + 60.0, cap))


def first_weights(
    spec: ConvolutionSpec, ctrl: SeriesControl, upto: float = math.inf
) -> WeightDistribution:
    """The weights `density` and `cdf` start from: delta_0..delta_K with K
    from the weight cumulants, capped at ctrl.max_terms (the cap the
    rows grow to) and at `upto`."""
    return build_weights(spec, _weight_count_estimate(spec, min(ctrl.max_terms, upto)))


def density(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """Density f(x) = C sum_k delta_k g(x; rho + k, b1).

    Stops once a bound on the remaining weight mass times the maximum
    achievable kernel value falls below rel_tol relative to the partial
    sum.  Pass a prebuilt law as `weights` (a `build_weights` snapshot) to
    amortize the recursion across calls (`methods.evaluate` builds one per
    request and answers its points as rows over it).  As in `cdf`, the
    row starts over its prefix, built or of `weights`, that ends where the
    point's kernel dies (`methods.mixture_point`), and the recursion runs
    on past the weights only if the tail bound asks for it.
    """
    return mixture_point("density", spec, x, ctrl, weights, first_weights)


def cdf(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """CDF F(y) = C sum_k delta_k G(y; rho + k, b1) with a rigorous tail.

    tail_bound = (1 - C sum_{k<=K} delta_k) G(y/b1; rho + K + 1), valid
    since G decreases in the shape argument.  `methods.mixture_rows` sums
    the series by parts: kernel sums over the cumulative weights plus
    G(y/b1; rho + K + 1) itself, the one incomplete-gamma value (the row's
    kernels continued), which the bound takes too.  The row starts over
    its prefix, built or of `weights`, that ends where the point's kernel
    dies (`methods.mixture_point`), and the recursion runs on past the
    weights only if the tail bound asks for it.
    """
    return mixture_point("cdf", spec, y, ctrl, weights, first_weights)
