"""What the density/CDF methods share, and the registry that names them.

The series methods all evaluate a gamma-kernel mixture
sum_k w_k g(x; rho + k, b1), b1 the minimum scale, and differ only in how
they build the masses w_k.  Here are the entry check every method runs
first, the gamma kernel, the mixture evaluator, the one convergence loop
over a weight table, the method registry, and `evaluate`, which answers
many points of one spec from one weight table.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError, DomainError
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import DEFAULT_CONTROL, SeriesControl

__all__ = [
    "METHODS",
    "Method",
    "check_point",
    "log_gamma_pdf",
    "gamma_kernel_bound",
    "mixture_density",
    "mixture_cdf",
    "WeightTable",
    "converge",
    "lookup",
    "evaluate",
]

#: Method names ``lookup`` accepts besides "auto".
METHODS = ("mathai", "moschopoulos", "approx")


def check_point(
    spec: ConvolutionSpec, x: float, quantity: str
) -> tuple[ConvolutionSpec, EvalResult | None]:
    """Canonicalize `spec` and settle the points that need no series.

    `quantity` is "density" or "cdf".  Rejects negative, NaN and infinite
    points with DomainError.  Returns the canonical spec and, for x = 0 or
    a single-component spec, the finished result; otherwise None.  At
    x = 0 the density is 0 for total shape rho > 1, C / b1 for rho = 1
    (C = prod (b1/b_i)^a_i) and diverges for rho < 1.
    """
    spec = canonicalize(spec)
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"{quantity} requires a finite x >= 0, got {x}")
    if x == 0.0:
        rho = spec.total_shape
        if quantity == "cdf" or rho > 1.0:
            return spec, EvalResult(0.0, 1, 0.0)
        if rho < 1.0:
            raise DomainError(f"density diverges at x = 0 for total shape {rho} < 1")
        beta1 = float(spec.scales[0])
        log_c = float(np.sum(spec.shapes * (math.log(beta1) - np.log(spec.scales))))
        return spec, EvalResult(math.exp(log_c) / beta1, 1, 0.0)
    if len(spec) == 1:
        (c,) = spec.components
        if quantity == "cdf":
            return spec, EvalResult(float(sp.gammainc(c.shape, x / c.scale)), 1, 0.0)
        return spec, EvalResult(math.exp(log_gamma_pdf(x, c.shape, c.scale)), 1, 0.0)
    return spec, None


def log_gamma_pdf(x: float, shape: float, scale: float) -> float:
    """log of the gamma density g(x; shape, scale) at x > 0."""
    return (
        (shape - 1.0) * math.log(x)
        - x / scale
        - math.lgamma(shape)
        - shape * math.log(scale)
    )


def _log_kernel_peak(x: float, shape_min: float, beta: float) -> float:
    """log of half of `gamma_kernel_bound`, finite where that underflows."""
    s_star = x / beta + 0.5
    candidates = [shape_min]
    for s in (s_star - 1.0, s_star, s_star + 1.0, s_star + 2.0):
        if s > shape_min:
            candidates.append(s)
    return max(log_gamma_pdf(x, s, beta) for s in candidates)


def gamma_kernel_bound(x: float, shape_min: float, beta: float) -> float:
    """Upper bound on g(x; s, beta) over shapes s >= shape_min.

    The kernel is unimodal in s for fixed x, peaking near s = x/beta + 1/2
    (where digamma(s) = log(x/beta)); evaluating a bracket of candidate
    shapes around the peak, clamped to shape_min, dominates every integer
    shift the series can use.  A factor 2 protects against the peak
    approximation.
    """
    best = _log_kernel_peak(x, shape_min, beta)
    return 2.0 * math.exp(best) if best > -700.0 else math.exp(best + math.log(2.0))


def mixture_density(
    masses: np.ndarray, rho: float, beta1: float, x: float, log_rest: float | None = None
) -> tuple[float, float]:
    """sum_k masses[k] g(x; rho + k, b1) at x > 0, and its tail bound.

    The sum is taken in log space, so kernels and masses far outside the
    double range still combine.  The bound is exp(log_rest), a bound on
    the mass the table leaves out, times the largest kernel value a later
    term could take.  log_rest defaults to log(1 - sum(masses)), which
    is zero mass below about 1e-16: past the kernel peak, where each
    left-out term can carry a larger kernel than any in the table, an
    exact weight law must pass a bound that does not round away.
    """
    k = np.arange(masses.shape[0], dtype=float)
    with np.errstate(divide="ignore"):
        log_terms = (
            np.log(masses)
            + (rho + k - 1.0) * math.log(x)
            - x / beta1
            - sp.gammaln(rho + k)
            - (rho + k) * math.log(beta1)
        )
    m = float(log_terms.max())
    value = math.exp(m) * float(np.exp(log_terms - m).sum()) if m > -math.inf else 0.0
    if log_rest is None:
        rest = 1.0 - float(masses.sum())
        log_rest = math.log(rest) if rest > 0.0 else -math.inf
    log_tail = log_rest + math.log(2.0) + _log_kernel_peak(x, rho + masses.shape[0], beta1)
    return value, math.exp(log_tail) if log_tail < 709.0 else math.inf


def mixture_cdf(
    masses: np.ndarray, rho: float, beta1: float, y: float
) -> tuple[float, float]:
    """sum_k masses[k] G(y/b1; rho + k), clamped to 1, and its tail bound.

    G is the regularized lower incomplete gamma function.  It decreases in
    the shape, so the left-out mass times G(y/b1; rho + K + 1) bounds the
    terms past the table's last index K.  The left-out mass is taken as
    1 - sum(masses): G <= 1, so where that rounds to zero the terms it
    misses are below the double spacing at the value.
    """
    u = y / beta1
    value = float(masses @ sp.gammainc(rho + np.arange(masses.shape[0], dtype=float), u))
    remaining = max(1.0 - float(masses.sum()), 0.0)
    return min(value, 1.0), remaining * float(sp.gammainc(rho + masses.shape[0], u))


class WeightTable(NamedTuple):
    """One stage of a route's weight law: masses[k] of g(.; rho + k, b1).

    source: what the route grows the next stage from.
    """

    masses: np.ndarray
    rho: float
    beta1: float
    source: object = None


def converge(
    quantity: str,
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl,
    table: WeightTable,
    grow: Callable[[ConvolutionSpec, SeriesControl, WeightTable], WeightTable | None]
    | None = None,
    log_rest: Callable[[ConvolutionSpec, np.ndarray], float] | None = None,
) -> EvalResult:
    """The mixture `quantity` ("density" or "cdf") at x > 0 from `table`.

    While the tail bound exceeds rel_tol times the value, the table is
    replaced by grow(spec, ctrl, table), the route's next, longer stage.
    terms_used is the size of the stage that converged.  When grow is
    None or returns None (the route can grow no further) the point raises
    ConvergenceError.  log_rest(spec, masses) gives the density's tail
    bound the log of a bound on the mass the table leaves out (see
    `mixture_density`).
    """
    while True:
        masses, rho, beta1 = table.masses, table.rho, table.beta1
        if quantity == "cdf":
            value, tail = mixture_cdf(masses, rho, beta1, x)
        else:
            rest = log_rest(spec, masses) if log_rest is not None else None
            value, tail = mixture_density(masses, rho, beta1, x, rest)
        if tail <= ctrl.rel_tol * max(value, 5e-324):
            return EvalResult(value, masses.shape[0], tail)
        table = grow(spec, ctrl, table) if grow is not None else None
        if table is None:
            raise ConvergenceError(
                f"{quantity} series not converged after {masses.shape[0]} terms "
                f"(remaining weight mass {1.0 - float(masses.sum()):.3e}, "
                f"tail bound {tail:.3e})",
                terms_used=masses.shape[0],
                last_term=tail,
            )


class Method(NamedTuple):
    """A method's name, per-point density and CDF, default control, and
    for each quantity whose weight law does not depend on the point, the
    builder of the table its per-point function takes as a fourth
    argument: density_table / cdf_table(spec, ctrl)."""

    name: str
    density: Callable[..., EvalResult]
    cdf: Callable[..., EvalResult]
    control: SeriesControl
    density_table: Callable[[ConvolutionSpec, SeriesControl], object] | None = None
    cdf_table: Callable[[ConvolutionSpec, SeriesControl], object] | None = None


def lookup(method: str, n: int) -> Method:
    """The method `method` names for an n-component spec.

    "auto" stands for mathai when n <= 2, else moschopoulos.  The
    functions are read off their modules at each call, so one that a test
    or tracer has replaced there is the one that runs.  (Imported here
    because the method modules import this one.)
    """
    from . import barnabani, mathai, moschopoulos

    if method == "auto":
        method = "mathai" if n <= 2 else "moschopoulos"
    if method == "mathai" and n <= 2:
        return Method(
            method, mathai.density2, mathai.cdf2, DEFAULT_CONTROL,
            cdf_table=mathai.cdf2_table,
        )
    if method == "mathai":
        return Method(
            method, mathai.density_n, mathai.cdf_n, mathai.CONTROL_N,
            cdf_table=mathai.cdf_n_table,
        )
    if method == "moschopoulos":
        table = moschopoulos.first_weights
        return Method(
            method, moschopoulos.density, moschopoulos.cdf, DEFAULT_CONTROL, table, table
        )
    if method == "approx":
        table = barnabani.approx_masses
        return Method(
            method, barnabani.density_approx, barnabani.cdf_approx,
            barnabani.CONTROL_APPROX, table, table,
        )
    raise DomainError(f"unknown method {method!r}; use one of {METHODS}")


def evaluate(
    method: str,
    quantity: str,
    spec: ConvolutionSpec,
    points: Sequence[float],
    ctrl: SeriesControl | None = None,
) -> list[EvalResult]:
    """`quantity` ("density" or "cdf") of `spec` at every point, in order.

    Every point passes the entry check first, so a bad point raises
    before any work.  Where the weight law does not depend on the point
    (the moschopoulos series, the approximation, the mathai CDFs) its
    table is built once and handed to the per-point function at each
    point, which grows a copy only where that point needs more terms; so
    each result equals the per-point call on that point alone.  The
    mathai densities sum a series in x and run per point.  `ctrl`
    defaults to the method's own control.
    """
    spec = canonicalize(spec)
    chosen = lookup(method, len(spec))
    ctrl = chosen.control if ctrl is None else ctrl
    xs = [float(x) for x in points]
    open_points = [check_point(spec, x, quantity)[1] is None for x in xs]
    fn = getattr(chosen, quantity)
    build = getattr(chosen, f"{quantity}_table")
    if build is None or not any(open_points):
        return [fn(spec, x, ctrl) for x in xs]
    table = build(spec, ctrl)
    return [fn(spec, x, ctrl, table) for x in xs]
