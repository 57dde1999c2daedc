"""Shared fixtures and helpers for the gammaconv test suite."""

from __future__ import annotations

import math
import random

import mpmath as mp
import numpy as np
import pytest

from gammaconv import ConvolutionSpec


def rel_err(got: float, want: float, floor: float = 1e-300) -> float:
    return abs(got - want) / max(abs(want), floor)


def random_spec(rng: random.Random, n: int, shape_hi: float = 8.0) -> ConvolutionSpec:
    comps = []
    scales: set[float] = set()
    for _ in range(n):
        b = math.exp(rng.uniform(-1.5, 1.6))
        while b in scales:
            b *= 1.0 + 1e-6
        scales.add(b)
        comps.append((rng.uniform(0.2, shape_hi), b))
    return ConvolutionSpec.of(*comps)


@pytest.fixture(scope="session")
def seeded_random():
    return random.Random(20260826)


def grid_between(lo: float, hi: float, points: int) -> np.ndarray:
    return np.linspace(lo, hi, points)


def laplace_reference(spec: ConvolutionSpec, x: float, quantity: str = "density") -> float:
    """Density or CDF of the convolution at x > 0 by Talbot inversion of
    its Laplace transform prod_i (1 + b_i s)^(-a_i), divided by s for the
    CDF.  Shares no code with the series.  Taken at 40 digits, accepted
    only where 60 digits agree with it to 1e-20 relative."""
    pairs = [(c.shape, c.scale) for c in spec.components]

    def invert(dps):
        with mp.workdps(dps):
            def transform(s):
                value = mp.fprod((1 + mp.mpf(b) * s) ** -mp.mpf(a) for a, b in pairs)
                return value / s if quantity == "cdf" else value

            return mp.invertlaplace(transform, mp.mpf(x), method="talbot")

    lo, hi = invert(40), invert(60)
    assert abs(lo - hi) <= 1e-20 * abs(hi), (spec, x, quantity)
    return float(lo)
