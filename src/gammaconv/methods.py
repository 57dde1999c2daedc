"""What the density/CDF methods share, and the registry that names them.

The series methods all evaluate a gamma-kernel mixture
sum_k w_k g(x; rho + k, b1), b1 the minimum scale, and differ only in how
they build the masses w_k.  Here are the entry check every method runs
first, the gamma kernel, the mixture evaluator, and the method registry.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as sp

from .errors import DomainError
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
    "lookup",
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


def gamma_kernel_bound(x: float, shape_min: float, beta: float) -> float:
    """Upper bound on g(x; s, beta) over shapes s >= shape_min.

    The kernel is unimodal in s for fixed x, peaking near s = x/beta + 1/2
    (where digamma(s) = log(x/beta)); evaluating a bracket of candidate
    shapes around the peak, clamped to shape_min, dominates every integer
    shift the series can use.  A factor 2 protects against the peak
    approximation.
    """
    s_star = x / beta + 0.5
    candidates = [shape_min]
    for s in (s_star - 1.0, s_star, s_star + 1.0, s_star + 2.0):
        if s > shape_min:
            candidates.append(s)
    best = max(log_gamma_pdf(x, s, beta) for s in candidates)
    return 2.0 * math.exp(best) if best > -700.0 else math.exp(best + math.log(2.0))


def mixture_density(
    masses: np.ndarray, rho: float, beta1: float, x: float
) -> tuple[float, float]:
    """sum_k masses[k] g(x; rho + k, b1) at x > 0, and its tail bound.

    The sum is taken in log space, so kernels and masses far outside the
    double range still combine.  The bound is the mass the table leaves
    out, 1 - sum(masses), times the largest kernel value a later term
    could take.
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
    remaining = max(1.0 - float(masses.sum()), 0.0)
    return value, remaining * gamma_kernel_bound(x, rho + masses.shape[0], beta1)


def mixture_cdf(
    masses: np.ndarray, rho: float, beta1: float, y: float
) -> tuple[float, float]:
    """sum_k masses[k] G(y/b1; rho + k), clamped to 1, and its tail bound.

    G is the regularized lower incomplete gamma function.  It decreases in
    the shape, so the left-out mass times G(y/b1; rho + K + 1) bounds the
    terms past the table's last index K.
    """
    u = y / beta1
    value = float(masses @ sp.gammainc(rho + np.arange(masses.shape[0], dtype=float), u))
    remaining = max(1.0 - float(masses.sum()), 0.0)
    return min(value, 1.0), remaining * float(sp.gammainc(rho + masses.shape[0], u))


class Method(NamedTuple):
    """A method's name, density and CDF functions, and default control."""

    name: str
    density: Callable[..., EvalResult]
    cdf: Callable[..., EvalResult]
    control: SeriesControl


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
        return Method(method, mathai.density2, mathai.cdf2, DEFAULT_CONTROL)
    if method == "mathai":
        return Method(method, mathai.density_n, mathai.cdf_n, mathai.CONTROL_N)
    if method == "moschopoulos":
        return Method(method, moschopoulos.density, moschopoulos.cdf, DEFAULT_CONTROL)
    if method == "approx":
        return Method(
            method, barnabani.density_approx, barnabani.cdf_approx, barnabani.CONTROL_APPROX
        )
    raise DomainError(f"unknown method {method!r}; use one of {METHODS}")
