"""Fast approximate density/CDF via a moment-matched discrete weight law.

The exact series weights form the law of K = sum of independent negative
binomials (size a_i, success probability q_i = b1/b_i).  Instead of the
O(K^2) recursion, the weight law is approximated by a three-parameter
generalized negative binomial distribution (GNBD) fitted to the first
three cumulants of K.  The fit happens once per spec; evaluation then
reuses the same kernel-mixture machinery as the exact series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, FitFailureError
from .methods import WeightLaw, mixture_point, nb_sum_cumulants
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import SeriesControl, log_gamma

__all__ = [
    "GnbdParams",
    "WeightMoments",
    "weight_cumulants",
    "fit_gnbd",
    "gnbd_cumulants",
    "gnbd_pmf",
    "density_approx",
    "cdf_approx",
]

#: Default truncation policy for the approximate series; tighter precision
#: is pointless given the method's approximation error.
CONTROL_APPROX = SeriesControl(rel_tol=1e-12, max_terms=200_000)

#: Largest relative residual `fit_gnbd` accepts in each matched cumulant.
_FIT_RESIDUAL = 1e-8


@dataclass(frozen=True)
class WeightMoments:
    """First three cumulants of the exact weight distribution."""

    k1: float
    k2: float
    k3: float


@dataclass(frozen=True)
class GnbdParams:
    """Fitted GNBD parameters: pmf

    P(K = k) = m / (m + beta_g k) C(m + beta_g k, k)
               theta^k (1 - theta)^(m + beta_g k - k),

    requiring m > 0, 0 < theta < 1, theta * beta_g < 1.  beta_g = 1
    recovers the ordinary negative binomial.
    """

    m: float
    beta_g: float
    theta: float

    def __post_init__(self):
        if not self.m > 0:
            raise DomainError(f"GNBD m must be positive, got {self.m}")
        if not (0.0 < self.theta < 1.0):
            raise DomainError(f"GNBD theta must be in (0, 1), got {self.theta}")
        if not self.theta * self.beta_g < 1.0:
            raise DomainError(
                f"GNBD requires theta*beta_g < 1, got "
                f"{self.theta * self.beta_g}"
            )


def weight_cumulants(spec: ConvolutionSpec) -> WeightMoments:
    """Cumulants of K from the negative-binomial decomposition
    (`methods.nb_sum_cumulants`)."""
    return WeightMoments(*nb_sum_cumulants(canonicalize(spec)))


def gnbd_pmf(params: GnbdParams, k) -> np.ndarray:
    """GNBD probability masses at the integer points k (vectorized).

    For beta_g < 1 the support is finite (masses vanish once
    m + (beta_g - 1) k + 1 <= 0).
    """
    k = np.asarray(k, dtype=float)
    m, b, t = params.m, params.beta_g, params.theta
    mbk = m + b * k
    valid = mbk - k + 1.0 > 0.0
    if not valid.all():
        masses = np.zeros_like(k)
        masses[valid] = gnbd_pmf(params, k[valid])
        return masses
    count = k.shape[0]
    # lgamma(m + b k + 1), lgamma(k + 1) and lgamma(m + b k - k + 1) in one call
    lg = log_gamma(np.concatenate((mbk, k, mbk - k)) + 1.0)
    log_p = np.log(mbk)
    np.subtract(math.log(m), log_p, out=log_p)
    log_p += lg[:count]
    log_p -= lg[count : 2 * count]
    log_p -= lg[2 * count :]
    log_p += k * math.log(t)
    log_p += (mbk - k) * math.log1p(-t)
    return np.exp(log_p, out=log_p)


def _gnbd_numeric_cumulants(m: float, b: float, t: float) -> tuple[float, float, float]:
    """First three cumulants by direct summation of the pmf.

    The summation extends in blocks until the tail contribution to the
    third raw moment is negligible; a fixed multiple-of-sd cutoff is not
    safe because the GNBD tail can decay arbitrarily slowly as
    theta*beta_g approaches 1.
    """
    params = GnbdParams(m, b, t)
    denom = 1.0 - t * b
    mean_est = m * t / denom
    sd_est = math.sqrt(max(m * t * (1.0 - t), 1e-12)) / denom**1.5
    block = min(max(int(mean_est + 14.0 * sd_est + 200.0), 256), 1_000_000)
    s0 = s1 = s2 = s3 = 0.0
    start = 0
    while start < 4_000_000:
        k = np.arange(start, start + block, dtype=float)
        p = gnbd_pmf(params, k)
        s0 += float(np.sum(p))
        s1 += float(k @ p)
        s2 += float((k * k) @ p)
        block3 = float((k**3) @ p)
        s3 += block3
        start += block
        block = 1024
        if block3 <= 1e-13 * max(s3, 1e-300) and s0 >= 1.0 - 1e-13:
            break
    mu = s1
    var = s2 - mu * mu
    third = s3 - 3.0 * mu * s2 + 2.0 * mu**3
    return mu, var, third


def gnbd_cumulants(params: GnbdParams) -> WeightMoments:
    """Closed-form first three cumulants of the GNBD.

    With D = 1 - theta*beta_g:
    kappa_1 = m theta / D,
    kappa_2 = m theta (1-theta) / D^3,
    kappa_3 = m theta (1-theta) (1 - 2 theta + beta_g theta (2 - theta)) / D^5.
    Validated against brute-force pmf summation (see the test suite).
    """
    m, b, t = params.m, params.beta_g, params.theta
    d = 1.0 - t * b
    k1 = m * t / d
    k2 = m * t * (1.0 - t) / d**3
    k3 = m * t * (1.0 - t) * (1.0 - 2.0 * t + b * t * (2.0 - t)) / d**5
    return WeightMoments(k1, k2, k3)


def fit_gnbd(mom: WeightMoments) -> GnbdParams:
    """Solve the three-cumulant matching system for (m, beta_g, theta).

    Writing T = k3 k1 / k2^2 and c = (3 - T)^2 k2 / k1, the system
    reduces to the quadratic theta^2 + (c - 4) theta + (4 - c) = 0, whose
    root in (0, 1) yields D = sqrt(k1 (1 - theta) / k2), beta_g =
    (1 - D) / theta and m = k1 D / theta.  The constraints m > 0 and
    0 < theta*beta_g < 1 hold automatically whenever a root exists; the
    system has no solution exactly when T >= 3 - 2 sqrt(k1 / k2), i.e.
    the target skewness exceeds what the family can reach at the matched
    mean and variance.  The result is verified against brute-force pmf
    summation before being returned.
    """
    if not mom.k2 > 0:
        raise FitFailureError(f"weight variance must be positive, got {mom.k2}")
    if not mom.k1 > 0:
        raise FitFailureError(f"weight mean must be positive, got {mom.k1}")
    if mom.k2 <= mom.k1:
        raise FitFailureError(
            "weight law of a gamma convolution is overdispersed; "
            f"got mean {mom.k1}, variance {mom.k2}"
        )

    big_t = mom.k3 * mom.k1 / mom.k2**2
    if not big_t < 3.0 - 2.0 * math.sqrt(mom.k1 / mom.k2):
        raise FitFailureError(
            f"no GNBD matches targets ({mom.k1:.6g}, {mom.k2:.6g}, "
            f"{mom.k3:.6g}): skewness factor {big_t:.6g} is at or above "
            f"the family bound {3.0 - 2.0 * math.sqrt(mom.k1 / mom.k2):.6g}"
        )
    c = (3.0 - big_t) ** 2 * mom.k2 / mom.k1
    theta = 0.5 * ((4.0 - c) + math.sqrt(c * (c - 4.0)))
    if not 0.0 < theta < 1.0:
        raise FitFailureError(
            f"no GNBD matches targets ({mom.k1:.6g}, {mom.k2:.6g}, "
            f"{mom.k3:.6g}): theta root {theta:.6g} outside (0, 1)"
        )
    d = math.sqrt(mom.k1 * (1.0 - theta) / mom.k2)
    beta_g = (1.0 - d) / theta
    m = mom.k1 * d / theta
    params = GnbdParams(m, beta_g, theta)

    got = _gnbd_numeric_cumulants(m, beta_g, theta)
    res = np.array(
        [
            (got[0] - mom.k1) / mom.k1,
            (got[1] - mom.k2) / mom.k2,
            (got[2] - mom.k3) / abs(mom.k3),
        ]
    )
    if not np.all(np.abs(res) <= _FIT_RESIDUAL):
        raise FitFailureError(
            f"GNBD moment matching failed: residuals {res} for targets "
            f"({mom.k1:.6g}, {mom.k2:.6g}, {mom.k3:.6g})"
        )
    return params


@lru_cache(maxsize=256)
def _fit_for_spec(spec: ConvolutionSpec) -> GnbdParams:
    return fit_gnbd(weight_cumulants(spec))


#: Mass a fitted table leaves out past its cut, as a share of its masses
#: past k = 0: half an ulp of 1, so their sum moves by less than its own
#: rounding.
_TABLE_TAIL = 2.0**-54


def _approx_weights(params: GnbdParams, ctrl: SeriesControl) -> np.ndarray:
    """GNBD masses at k = 0..K, cut where the tail is negligible.

    The table starts at the mean + 14 sd of the GNBD (kappa_1 and kappa_2
    of `gnbd_cumulants`) and doubles, appending the masses past its end,
    until its masses are within rel_tol/10 of one or it reaches
    ctrl.max_terms.  It is then cut at the first index past which its
    masses, summed from the table's end, are at most `_TABLE_TAIL` times
    those past k = 0, not times all: at a tiny total shape rho the mass at
    k = 0 is near 1 but its kernel carries a factor of about rho, so the
    density rests on the masses past it.  The masses are elementwise in k
    (`specfun.log_gamma`), so a table built by appending is, bit for bit,
    the one `gnbd_pmf` gives at its final length.
    """
    cum = gnbd_cumulants(params)
    k_max = min(int(cum.k1 + 14.0 * math.sqrt(max(cum.k2, 1e-12)) + 100.0), ctrl.max_terms)
    w = gnbd_pmf(params, np.arange(k_max + 1))
    while 1.0 - w.sum() > 0.1 * ctrl.rel_tol and k_max < ctrl.max_terms:
        k_new = min(2 * k_max, ctrl.max_terms)
        w = np.concatenate((w, gnbd_pmf(params, np.arange(k_max + 1, k_new + 1))))
        k_max = k_new
    past = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    return w[: int(np.argmax(past <= _TABLE_TAIL * past[1]))]


def approx_law(
    spec: ConvolutionSpec, ctrl: SeriesControl, upto: float = math.inf
) -> WeightLaw:
    """The fitted GNBD law of a canonical spec of two or more components:
    its whole table (`_approx_weights`), which never grows.  A row that
    reaches the table's end is answered by `methods.converge_rows`
    whatever its tail bound: the approximation's own error dominates any
    truncation.  (`upto` is unused: each row reads its own prefix.)
    """
    masses = _approx_weights(_fit_for_spec(spec), ctrl)
    return WeightLaw(masses, spec.total_shape, float(spec.scales[0]))


def density_approx(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = CONTROL_APPROX,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """Approximate density sum_k gnbd_pmf(k) g(x; rho + k, b1).

    The row starts over its prefix of the table that ends where the
    point's kernel dies (`methods.mixture_point`), and runs on within the
    table only if the tail bound asks for it.  Pass a prebuilt law
    (`approx_law`) as `weights` to share one fit and one GNBD table
    across calls."""
    return mixture_point("density", spec, x, ctrl, weights, approx_law)


def cdf_approx(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl = CONTROL_APPROX,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """Approximate CDF sum_k gnbd_pmf(k) G(y; rho + k, b1).

    The row starts over its prefix of the table that ends where the
    point's kernel dies (`methods.mixture_point`), and runs on
    within the table only if the tail bound asks for it."""
    return mixture_point("cdf", spec, y, ctrl, weights, approx_law)
