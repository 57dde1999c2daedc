"""Benchmark harness: bulk-range grids, median timings, CSV reports.

Methodology: for each parameter setting,
draw a large sample, form 100 equally spaced grid points across the bulk
range (here pinned down as the 0.1%-99.9% empirical quantiles), time each
method evaluating the whole grid point by point, and report the median
wall time over replicates.  Value columns are deterministic given the
seed; only timings vary between runs.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
from typing import Callable, Sequence

import numpy as np

from . import methods, renewal
from .model import ConvolutionSpec, MixtureExpSpec, canonicalize
from .oracle import sample_convolution

__all__ = [
    "TABLE1_SETTINGS",
    "TABLE2_SETTINGS",
    "RENEW2_SETTINGS",
    "RENEW3_SETTINGS",
    "FIGURE_SETUPS",
    "bulk_grid",
    "median_time_ns",
    "run_suite",
    "figure_error_rows",
    "DEFAULT_SEED",
]

GRID_POINTS = 100
BULK_LO = 0.001
BULK_HI = 0.999

#: n = 2 settings: alpha repeated for both components, scale pairs.
TABLE1_SETTINGS = [
    (alpha, scales)
    for alpha in (0.2, 2.0, 20.0)
    for scales in ((0.4, 0.3), (4.0, 0.3), (4.0, 3.0))
]

#: n = 3 settings.
TABLE2_SETTINGS = [
    (alpha, scales)
    for alpha in (0.2, 2.0, 20.0)
    for scales in (
        (0.4, 0.3, 0.2),
        (4.0, 0.3, 0.2),
        (4.0, 3.0, 0.2),
        (4.0, 3.0, 2.0),
    )
]

#: Renewal S = 2 settings: scale pair -> queried n values (t = 10).
RENEW2_SETTINGS = [
    ((0.4, 0.3), (27, 32, 40)),
    ((4.0, 0.3), (10, 18, 30)),
    ((4.0, 3.0), (2, 3, 5)),
]

#: Renewal S = 3 settings.
RENEW3_SETTINGS = [
    ((0.4, 0.3, 0.2), (36, 42, 51)),
    ((4.0, 0.3, 0.2), (10, 19, 35)),
    ((4.0, 3.0, 0.2), (5, 10, 19)),
    ((4.0, 3.0, 2.0), (2, 4, 7)),
]

#: Worst-case approximation setups for the error export.
FIGURE_SETUPS = {
    1: ((0.2, 0.2, 0.2), (4.0, 0.3, 0.2)),
    2: ((2.0, 2.0, 2.0), (0.4, 0.3, 0.2)),
}

RENEWAL_T = 10.0

#: Seed of every grid and suite run not given one.
DEFAULT_SEED = 20260826


def spec_for(alpha: float, scales: Sequence[float]) -> ConvolutionSpec:
    return ConvolutionSpec.of(*((alpha, b) for b in scales))


def equal_mixture(scales: Sequence[float]) -> MixtureExpSpec:
    s = len(scales)
    return MixtureExpSpec(tuple(1.0 / s for _ in scales), tuple(scales))


def bulk_grid(
    spec: ConvolutionSpec,
    n_samples: int = 100_000,
    seed: int | None = None,
) -> np.ndarray:
    """Equally spaced grid across the empirical 0.1%-99.9% quantile range."""
    draws = sample_convolution(spec, n_samples, DEFAULT_SEED if seed is None else seed)
    lo, hi = np.quantile(draws, [BULK_LO, BULK_HI])
    return np.linspace(lo, hi, GRID_POINTS)


def median_time_ns(fn: Callable[[], object], replicates: int) -> int:
    times = []
    for _ in range(replicates):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def _grid_eval(fn, grid) -> list[float]:
    return [fn(float(x)).value for x in grid]


#: Methods each table compares; the approximation is exact for n = 2.
_COGA_METHODS = {2: ("moschopoulos", "mathai"), 3: ("moschopoulos", "mathai", "approx")}


def _run_coga(settings, n: int, replicates: int, n_samples: int, seed: int):
    rows = []
    for alpha, scales in settings:
        spec = spec_for(alpha, scales)
        grid = bulk_grid(spec, n_samples, seed)
        row: dict = {"alpha": alpha}
        for i, b in enumerate(scales, start=1):
            row[f"beta{i}"] = b
        for name in _COGA_METHODS[n]:
            chosen = methods.lookup(name, canonicalize(spec))
            dens, dist = chosen.density, chosen.cdf
            d_fn = lambda x, f=dens, s=spec: f(s, x)
            c_fn = lambda y, f=dist, s=spec: f(s, y)
            row[f"density_{name}_ns"] = median_time_ns(
                lambda: _grid_eval(d_fn, grid), replicates
            )
            row[f"cdf_{name}_ns"] = median_time_ns(
                lambda: _grid_eval(c_fn, grid), replicates
            )
            row[f"density_{name}_at_median"] = d_fn(float(grid[len(grid) // 2])).value
            row[f"cdf_{name}_at_median"] = c_fn(float(grid[len(grid) // 2])).value
        rows.append(row)
    return rows


#: Report column -> renewal route; the approximation only for S >= 3.
#: "proposed" times pmf_s2 on renew2 and uniformization (one pmf_vector
#: pass up to n) on renew3.
_RENEWAL_ROUTES = {
    "mathai": "raw-mathai",
    "moschopoulos": "raw-moschopoulos",
    "approx": "approx",
    "proposed": "proposition",
}


def _run_renewal(settings, replicates: int):
    rows = []
    for scales, n_values in settings:
        mix = equal_mixture(scales)
        routes = [
            (name, route)
            for name, route in _RENEWAL_ROUTES.items()
            if name != "approx" or len(scales) > 2
        ]
        for n in n_values:
            q = renewal.RenewalQuery(RENEWAL_T, n)
            row: dict = {}
            for i, b in enumerate(scales, start=1):
                row[f"beta{i}"] = b
            row["n"] = n
            for name, route in routes:
                row[f"{name}_ns"] = median_time_ns(
                    lambda: renewal.pmf(mix, q, route), replicates
                )
                row[f"{name}_pmf"] = renewal.pmf(mix, q, route)
            rows.append(row)
    return rows


def run_suite(
    suite: str,
    replicates: int = 10,
    n_samples: int = 100_000,
    seed: int | None = None,
) -> list[dict]:
    """Run a named benchmark suite and return report rows."""
    seed = DEFAULT_SEED if seed is None else seed
    if suite == "coga2":
        rows = _run_coga(TABLE1_SETTINGS, 2, replicates, n_samples, seed)
    elif suite == "coga3":
        rows = _run_coga(TABLE2_SETTINGS, 3, replicates, n_samples, seed)
    elif suite == "renew2":
        rows = _run_renewal(RENEW2_SETTINGS, replicates)
    elif suite == "renew3":
        rows = _run_renewal(RENEW3_SETTINGS, replicates)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    meta = {
        "machine": platform.platform(),
        "python": sys.version.split()[0],
        "replicates": replicates,
        "seed": seed,
    }
    for row in rows:
        row.update(meta)
    return rows


def figure_error_rows(setup: int, seed: int | None = None) -> list[dict]:
    """Approximation-vs-exact differences over the bulk grid of a setup."""
    if setup not in FIGURE_SETUPS:
        raise ValueError(f"unknown setup {setup!r}; available: {sorted(FIGURE_SETUPS)}")
    alphas, scales = FIGURE_SETUPS[setup]
    spec = canonicalize(ConvolutionSpec.of(*zip(alphas, scales)))
    grid = bulk_grid(spec, seed=seed)
    columns = [
        [r.value for r in methods.evaluate(method, quantity, spec, grid)]
        for method in ("moschopoulos", "approx")
        for quantity in ("density", "cdf")
    ]
    rows = []
    for x, ed, ec, ad, ac in zip(grid, *columns):
        rows.append(
            {
                "x": float(x),
                "exact_density": ed,
                "approx_density": ad,
                "density_diff": ad - ed,
                "exact_cdf": ec,
                "approx_cdf": ac,
                "cdf_diff": ac - ec,
            }
        )
    return rows
