"""Independent brute-force verifiers: samplers and closed forms, in numpy.

Nothing here shares evaluation code with the series methods, so these
routines can serve as oracles for them.  The tests' density and CDF
reference at any n is a Laplace inversion in mpmath
(`tests/conftest.py::laplace_reference`).

Random numbers come from a small counter-based generator (splitmix64
applied to a keyed counter) embedded in this module rather than a
platform default, so sampled reference values are reproducible from the
algorithm description alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import ConvolutionSpec, MixtureExpSpec, canonicalize, validate_mixture

__all__ = [
    "CounterRng",
    "sample_convolution",
    "sample_renewal_count",
    "hypoexp_closed_form",
    "hypoexp_closed_form_cdf",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_U54 = 2.0**-54


def _mix64(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64."""
    v = v ^ (v >> np.uint64(30))
    v = v * _MIX1
    v = v ^ (v >> np.uint64(27))
    v = v * _MIX2
    return v ^ (v >> np.uint64(31))


class CounterRng:
    """Counter-based uniform generator: u_i = mix64(key + (i+1)*golden).

    Deterministic given (seed, stream); independent streams derive their
    keys by mixing the stream index into the seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = _mix64(np.uint64([seed & 0xFFFFFFFFFFFFFFFF]))[0]
        if stream:
            # uint64 multiplication wraps modulo 2^64 by design.
            with np.errstate(over="ignore"):
                key = _mix64(np.uint64([key ^ (np.uint64(stream) * _GOLDEN)]))[0]
        self._key = key
        self._counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles in (0, 1)."""
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        bits = _mix64(self._key + idx * _GOLDEN)
        return (bits >> np.uint64(11)).astype(float) * _U53 + _U54

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller."""
        half = (count + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:count]

    def standard_gammas(self, alpha: float, count: int) -> np.ndarray:
        """Gamma(alpha, 1) draws via Marsaglia-Tsang squeeze/rejection.

        Valid for all alpha > 0; alpha < 1 goes through the boosting
        transform X = X_{alpha+1} U^(1/alpha).
        """
        if alpha <= 0:
            raise DomainError(f"gamma shape must be positive, got {alpha}")
        if alpha < 1.0:
            boosted = self.standard_gammas(alpha + 1.0, count)
            u = self.uniforms(count)
            return boosted * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(count)
        filled = 0
        while filled < count:
            need = count - filled
            batch = int(need * 1.3) + 16
            x = self.normals(batch)
            v = (1.0 + c * x) ** 3
            u = self.uniforms(batch)
            with np.errstate(invalid="ignore", divide="ignore"):
                accept = (v > 0.0) & (
                    np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v)
                )
            good = d * v[accept]
            take = min(good.shape[0], need)
            out[filled : filled + take] = good[:take]
            filled += take
        return out


def sample_convolution(
    spec: ConvolutionSpec, count: int, seed: int
) -> np.ndarray:
    """Independent draws of Y = sum X_i, one sampler stream per component."""
    spec = canonicalize(spec)
    total = np.zeros(count)
    for i, comp in enumerate(spec.components):
        rng = CounterRng(seed, stream=i)
        total += comp.scale * rng.standard_gammas(comp.shape, count)
    return total


def sample_renewal_count(
    mix: MixtureExpSpec, t: float, count: int, seed: int
) -> np.ndarray:
    """Counts of mixture-exponential holding times fitting inside [0, t]."""
    mix = validate_mixture(mix)
    if t <= 0:
        raise DomainError(f"t must be positive, got {t}")
    cum_w = np.cumsum(mix.weights)
    scales = np.asarray(mix.scales)
    rng = CounterRng(seed, stream=0)
    totals = np.zeros(count)
    counts = np.zeros(count, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            return counts
        pick = np.searchsorted(cum_w, rng.uniforms(idx.size), side="left")
        hold = -scales[np.minimum(pick, len(scales) - 1)] * np.log(
            rng.uniforms(idx.size)
        )
        totals[idx] += hold
        still = totals[idx] <= t
        counts[idx[still]] += 1
        alive[idx[~still]] = False


def _hypoexp_coefficients(rates) -> list[tuple[float, float]]:
    """(l_i, prod_{j != i} l_j / (l_j - l_i)) for distinct rates l_i."""
    rates = np.asarray(rates, dtype=float)
    if np.unique(rates).shape[0] != rates.shape[0]:
        raise DomainError("hypoexponential closed form needs distinct rates")
    return [
        (li, math.prod(lj / (lj - li) for j, lj in enumerate(rates) if j != i))
        for i, li in enumerate(rates)
    ]


def hypoexp_closed_form(rates, x: float) -> float:
    """Density of a sum of exponentials with distinct rates at x.

    sum_i (prod_{j != i} l_j / (l_j - l_i)) l_i e^(-l_i x).
    """
    total = 0.0
    for li, coef in _hypoexp_coefficients(rates):
        total += coef * li * math.exp(-li * x)
    return total


def hypoexp_closed_form_cdf(rates, x: float) -> float:
    """CDF companion of hypoexp_closed_form."""
    total = 0.0
    for li, coef in _hypoexp_coefficients(rates):
        total += coef * (1.0 - math.exp(-li * x))
    return total
