"""Parameter records for gamma convolutions and exponential mixtures.

Scale (not rate) parameterization throughout: a gamma (shape a, scale b)
has mean a*b, and Exp(b) has mean b.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "GammaComponent",
    "ConvolutionSpec",
    "MixtureExpSpec",
    "EvalResult",
    "canonicalize",
    "validate_mixture",
]

#: Relative tolerance under which two scales are treated as equal and merged.
SCALE_MERGE_RTOL = 1e-12

#: Total shape from which lgamma of it overflows a double (near 2.56e305).
MAX_TOTAL_SHAPE = 2.5e305

#: Allowed deviation of mixture weights from summing to one.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GammaComponent:
    """One gamma summand: shape alpha > 0, scale beta > 0."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise DomainError(f"shape must be positive and finite, got {self.shape}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class ConvolutionSpec:
    """The parameter list defining Y = sum of independent gamma variables."""

    components: tuple[GammaComponent, ...]

    #: True on the specs `canonicalize` returns.  Not a field, so equality
    #: and hashing do not see it.
    _canonical = False

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, GammaComponent) else GammaComponent(*c)
            for c in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise DomainError("ConvolutionSpec needs at least one component")

    @classmethod
    def of(cls, *pairs: Sequence[float]) -> "ConvolutionSpec":
        """Build from (shape, scale) pairs: ConvolutionSpec.of((1, 2), (3, 4))."""
        return cls(tuple(GammaComponent(float(a), float(b)) for a, b in pairs))

    def __len__(self) -> int:
        return len(self.components)

    @property
    def shapes(self) -> np.ndarray:
        return np.array([c.shape for c in self.components])

    @property
    def scales(self) -> np.ndarray:
        return np.array([c.scale for c in self.components])

    @functools.cached_property
    def total_shape(self) -> float:
        """Sum of shapes (gamma / rho in the series representations)."""
        return float(sum(c.shape for c in self.components))


def canonicalize(spec: ConvolutionSpec) -> ConvolutionSpec:
    """Merge equal-scale components and sort ascending by scale.

    Components whose scales agree within SCALE_MERGE_RTOL (relative) are
    merged by summing shapes; the represented distribution is unchanged.
    After canonicalization the first component carries the minimum scale.
    A total shape of MAX_TOTAL_SHAPE or more raises DomainError.
    Idempotent.  Specs are immutable, so results are memoized, and a
    result is marked, so passing it again returns it without hashing it.
    """
    return spec if spec._canonical else _canonical_form(spec)


@functools.lru_cache(maxsize=4096)
def _canonical_form(spec: ConvolutionSpec) -> ConvolutionSpec:
    """`canonicalize` of an unmarked spec."""
    comps = sorted(spec.components, key=lambda c: c.scale)
    merged: list[list[float]] = []
    for c in comps:
        if merged and c.scale - merged[-1][1] <= SCALE_MERGE_RTOL * c.scale:
            merged[-1][0] += c.shape
        else:
            merged.append([c.shape, c.scale])
    if sum(a for a, _ in merged) >= MAX_TOTAL_SHAPE:
        raise DomainError(
            f"total shape must be below {MAX_TOTAL_SHAPE:g}, got {spec.total_shape:g}"
        )
    out = ConvolutionSpec(tuple(GammaComponent(a, b) for a, b in merged))
    object.__setattr__(out, "_canonical", True)
    return out


@dataclass(frozen=True)
class MixtureExpSpec:
    """Weights and scales of a finite mixture of exponential distributions."""

    weights: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "scales", tuple(float(b) for b in self.scales))

    @property
    def size(self) -> int:
        return len(self.weights)


@functools.lru_cache(maxsize=4096)
def validate_mixture(spec: MixtureExpSpec) -> MixtureExpSpec:
    """Check and normalize a mixture spec.

    Weights must be non-negative and sum to 1 within WEIGHT_SUM_TOL; they
    are renormalized to sum exactly to 1.  Zero-weight components are
    dropped.  Scales must be positive; they need not be distinct.
    Specs are immutable, so results are memoized.
    """
    if len(spec.weights) != len(spec.scales):
        raise DomainError(
            f"weights and scales must have equal length, got "
            f"{len(spec.weights)} and {len(spec.scales)}"
        )
    if len(spec.weights) < 1:
        raise DomainError("mixture needs at least one component")
    for w in spec.weights:
        if not (math.isfinite(w) and w >= 0):
            raise DomainError(f"mixture weights must be non-negative, got {w}")
    for b in spec.scales:
        if not (math.isfinite(b) and b > 0):
            raise DomainError(f"mixture scales must be positive, got {b}")
    total = sum(spec.weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise DomainError(f"mixture weights sum to {total}, expected 1")
    kept = [(w / total, b) for w, b in zip(spec.weights, spec.scales) if w > 0]
    if not kept:
        raise DomainError("mixture has no positive-weight component")
    return MixtureExpSpec(
        tuple(w for w, _ in kept), tuple(b for _, b in kept)
    )


@dataclass(frozen=True)
class EvalResult:
    """Output of a density/CDF/pmf evaluation with truncation diagnostics.

    value: the evaluated density (1/x units) or probability.
    terms_used: number of series terms consumed.
    tail_bound: rigorous bound on the truncation error when available; it
        does not cover the rounding of the terms summed.  The mixture
        routes (moschopoulos, nbsum, the mathai CDF, the approximation)
        bound it by the left-out weight mass times the largest kernel
        value; the approximation's covers the truncation of its fitted
        law, not the fit's error.  mathai's densities (the closed 1F1 form
        and the n >= 3 multiple series) give None: their series stop on a
        relative rule, and their terms are not the masses of a law.
    """

    value: float
    terms_used: int
    tail_bound: Optional[float] = None
