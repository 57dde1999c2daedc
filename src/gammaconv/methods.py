"""What the density/CDF methods share, and the registry that names them.

The series methods all evaluate a gamma-kernel mixture
sum_k w_k g(x; rho + k, b1), b1 the minimum scale, and differ only in how
they build the masses w_k, their weight law.  Here are the entry check
every method runs first, the gamma kernel, the weight law and its exact
negative-binomial-sum constructor, the mixture evaluator, the one
convergence loop, the one per-point body of every weight-law route
(`mixture_point`: the moschopoulos series, the approximation, and the
nbsum route, whose CDF is also the mathai CDF), the method registry with
`auto`'s cost rule, and `evaluate`, which answers many points of one spec
from one weight law.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError, DomainError
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import DEFAULT_CONTROL, SeriesControl, stirling_series

__all__ = [
    "METHODS",
    "Method",
    "check_point",
    "log_gamma_pdf",
    "WeightLaw",
    "NBSumLaw",
    "nb_sum_law",
    "poisson_masses",
    "mixture_density",
    "mixture_cdf",
    "converge",
    "mixture_point",
    "nbsum_density",
    "nbsum_cdf",
    "lookup",
    "evaluate",
]

#: Method names ``lookup`` accepts besides "auto".
METHODS = ("mathai", "moschopoulos", "nbsum", "approx")


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
    """log of half an upper bound on g(x; s, beta) over shapes s >= shape_min.

    The kernel is unimodal in s for fixed x, peaking near s = x/beta + 1/2
    (where digamma(s) = log(x/beta)); evaluating a bracket of candidate
    shapes around the peak, clamped to shape_min, dominates every integer
    shift the series can use.  The factor 2 (log 2, added by the caller)
    protects against the peak approximation.
    """
    s_star = x / beta + 0.5
    candidates = [shape_min]
    for s in (s_star - 1.0, s_star, s_star + 1.0, s_star + 2.0):
        if s > shape_min:
            candidates.append(s)
    return max(log_gamma_pdf(x, s, beta) for s in candidates)


class WeightLaw:
    """A stage w_0..w_K of the masses of the mixture sum_k w_k g(.; rho + k, b1).

    A law's stages are its prefixes.  Built from masses directly, as
    Barnabani's GNBD fit is, they are prefixes of one fixed `table` (by
    default the masses given): `stage` slices it, `extend` gives None at
    its end, and the mass a stage leaves out is taken as 1 - sum(masses).
    The exact law (`NBSumLaw`) builds its stages past its masses instead.
    Both mixture sums read the stage's cached `kernel_table`; the CDF's
    also `cdf_terms`.
    """

    def __init__(
        self, masses: np.ndarray, rho: float, beta1: float, table: np.ndarray | None = None
    ):
        self.masses = masses
        self.rho = rho
        self.beta1 = beta1
        self.table = masses if table is None else table

    @property
    def _last_index(self) -> float:
        """The last index a stage can reach, ctrl.max_terms aside."""
        return self.table.shape[0] - 1

    def _prefix(self, upto: int) -> WeightLaw:
        """The stage w_0..w_upto, at most the whole table, with nothing cached."""
        return WeightLaw(self.table[: upto + 1], self.rho, self.beta1, self.table)

    def stage(self, upto: int) -> WeightLaw:
        """The stage w_0..w_upto.  Where that is shorter than this one it
        takes this stage's `kernel_table`, where computed, as prefix views,
        so many slices of one stage share one computation."""
        law = self._prefix(upto)
        table = self.__dict__.get("kernel_table")
        if table is not None and upto < self.masses.shape[0]:
            law.kernel_table = tuple(t[: upto + 1] for t in table)
        return law

    def extend(self, ctrl: SeriesControl) -> WeightLaw | None:
        """The stage whose last index is 1.5 K + 64, K this stage's, capped
        at ctrl.max_terms and at the law's last index; None once K has
        reached them."""
        upto = self.masses.shape[0] - 1
        last = min(ctrl.max_terms, self._last_index)
        if upto >= last:
            return None
        return self.stage(min(int(upto * 1.5) + 64, last))

    @cached_property
    def log_mass_past(self) -> float:
        """log of a bound on the mass past the table: log(1 - sum(masses)),
        -inf where that rounds to zero."""
        rest = 1.0 - float(self.masses.sum())
        return math.log(rest) if rest > 0.0 else -math.inf

    @cached_property
    def kernel_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x-free parts of both mixture sums' kernels (`_saddle_deviance`):
        the shapes a = rho + k, log c_a = -s(a) - log(2 pi a)/2 (s the Stirling
        error) and the density's log weights log(a c_a w_k).  Elementwise in
        k, so a prefix of it is a shorter stage's own table to the bit."""
        shapes = self.rho + np.arange(self.masses.shape[0], dtype=float)
        log_c = -_stirling_error(shapes) - 0.5 * np.log(2.0 * math.pi * shapes)
        with np.errstate(divide="ignore"):
            return shapes, log_c, np.log(self.masses) + log_c + np.log(shapes)

    @cached_property
    def cdf_terms(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """What `mixture_cdf`'s kernel sums add to `kernel_table`: log W_m and
        log S_m plus log c_a, W_m the masses up to index m and S_m those past
        it, summed from the tail; sum(masses); and the mean shape."""
        masses = self.masses
        shapes, log_c, _ = self.kernel_table
        past = np.append(np.cumsum(masses[:0:-1])[::-1], 0.0)
        total = float(masses.sum())
        mean_shape = float(shapes @ masses) / total if total > 0.0 else math.inf
        with np.errstate(divide="ignore"):
            log_cum, log_past = np.log(np.cumsum(masses)), np.log(past)
        return log_c + log_cum, log_c + log_past, total, mean_shape


#: Size from which `_nb_masses` takes the whole log-mass from its grouped
#: Stirling form: there lgamma(a) alone exceeds 200, and the plain form's
#: rounding of a log q - lgamma(a) + lgamma(a + k) passes 3e-14.  Below
#: it the plain form stays: it costs 15-70 us per pmf of 60-1000 terms
#: against 250-420 us, and the raw renewal routes build hundreds of small
#: NB pmfs per query.
_NB_GROUPED_FROM = 64.0


def _stirling_error(z: np.ndarray) -> np.ndarray:
    """lgamma(z + 1) - (z log z - z + log(2 pi z) / 2) at z > 0.

    Past z = 15 from the Stirling series (`specfun.stirling_series`);
    below it from lgamma itself, where every term is under 30.
    """
    out = np.empty_like(z)
    small = z <= 15.0
    zs = z[small]
    out[small] = sp.gammaln(zs + 1.0) - (zs * np.log(zs) - zs + 0.5 * np.log(2.0 * math.pi * zs))
    out[~small] = stirling_series(z[~small])
    return out


#: 1/3, 1/5, ..., 1/59: the coefficients of `_deviance`'s series.
_DEVIANCE_SERIES = 1.0 / np.arange(3.0, 60.0, 2.0)


def _deviance(x: np.ndarray | float, m: np.ndarray | float) -> np.ndarray:
    """x log(x / m) + m - x, to a few units of rounding of its value.

    Where x and m are within a factor 3 (|v| < 1/2, v = (x - m)/(x + m))
    it is (x - m) v + 2 x v^3 sum_j v^(2j) / (2j + 3), whose terms carry
    no cancellation; the series is cut past j = 28, where v^56 < 1e-16.
    """
    d = x - m
    v = d / (x + m)
    v2 = v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        far = x * np.log(x / m) - d
    series = np.full_like(v, _DEVIANCE_SERIES[-1])
    for c in _DEVIANCE_SERIES[-2::-1]:
        series *= v2
        series += c
    near = d * v + 2.0 * x * v * v2 * series
    return np.where(np.abs(v) < 0.5, near, far)


def _nb_masses(a: float, q: float, count: int) -> np.ndarray:
    """Negative-binomial masses (size a, success probability q) at k < count.

    From size `_NB_GROUPED_FROM` up, the whole log-mass comes from one
    grouped Stirling form (Loader's saddle-point form; N = a + k):

        log w_k = log(a / (2 pi N k)) / 2 + s(N) - s(a) - s(k)
                  - D(a, N q) - D(k, N (1 - q)),

    s the Stirling error and D the deviance x log(x/m) + m - x.  Every
    term is small near the mode, so nothing of size a log a cancels, and
    the form is insensitive to the rounding of N to first order.  w_0 is
    q^a.

    Below that size, lgamma(a + k) - lgamma(k + 1) is the plain difference
    for k < 128 and comes from the Stirling series past that: there both
    lgamma values are near k log k, and their difference would lose about
    k log k times 1e-16 (2e-12 relative on a mass at k = 750).
    """
    if a >= _NB_GROUPED_FROM:
        k = np.arange(1, count, dtype=float)
        n = a + k
        log_w = (
            0.5 * np.log(a / (2.0 * math.pi * n * k))
            + _stirling_error(n)
            - stirling_series(a)
            - _stirling_error(k)
            - _deviance(a, n * q)
            - _deviance(k, n * (1.0 - q))
        )
        return np.concatenate(([q**a], np.exp(log_w)))[:count]
    k = np.arange(count, dtype=float)
    log_ratio = sp.gammaln(a + k[:128]) - sp.gammaln(k[:128] + 1.0)
    if count > 128:
        # lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2, the Stirling
        # error, at z = a + k and z = k + 1.
        y = k[128:] + 1.0
        rest = _stirling_error(np.concatenate((y + (a - 1.0), y)))
        tail = (y + (a - 1.5)) * np.log1p((a - 1.0) / y) + (a - 1.0) * (np.log(y) - 1.0)
        n = y.shape[0]
        log_ratio = np.concatenate((log_ratio, tail + (rest[:n] - rest[n:])))
    return np.exp((a * math.log(q) - math.lgamma(a)) + log_ratio + k * math.log1p(-q))


def poisson_masses(mean: float, count: int) -> np.ndarray:
    """Poisson(mean) masses at m < count, each within a few units of
    rounding of its logarithm.

    e^-mean at m = 0, and past it the grouped Stirling form of
    `_nb_masses`: e^(-s(m) - D(m, mean)) / sqrt(2 pi m), s the Stirling
    error and D the deviance.  Taken as m log(mean) - mean - lgamma(m + 1),
    the exponent would carry the rounding of terms near m log m (4e-14
    relative at mean 80).
    """
    m = np.arange(1, count, dtype=float)
    log_w = -_stirling_error(m) - _deviance(m, mean) - 0.5 * np.log(2.0 * math.pi * m)
    return np.concatenate(([math.exp(-mean)], np.exp(log_w)))[:count]


class NBSumLaw(WeightLaw):
    """A prefix of the exact weight law of a canonical spec of two or more
    components: the law of a sum of independent negative binomials
    NB(a_i, q_i), q_i = b1/b_i, over the components past the first.

    Every stage is an exact prefix: a longer stage repeats this one's
    masses bit for bit.  `stage(upto)` builds w_0..w_upto past this one by
    convolving the NB pmfs cut at upto + 1 terms;
    `moschopoulos.WeightDistribution` builds them by the recursion instead.
    """

    def __init__(self, masses: np.ndarray, spec: ConvolutionSpec):
        super().__init__(masses, spec.total_shape, spec.components[0].scale)
        self.spec = spec

    #: Stages are built to any size; `extend` stops at ctrl.max_terms.
    _last_index = math.inf

    def _prefix(self, upto: int) -> NBSumLaw:
        """A slice of this stage where upto is within it, else the stage
        built by `nb_sum_law`.  A slice of 12 or more masses equals the
        stage built at its size bit for bit (np.convolve sums a full
        overlap of at most 11 terms in another order); `_kernel_cut` asks
        for 33 or more."""
        if upto < self.masses.shape[0]:
            return NBSumLaw(self.masses[: upto + 1], self.spec)
        return nb_sum_law(self.spec, count=upto + 1)

    @cached_property
    def log_mass_past(self) -> float:
        """log of a bound on the mass past the table.

        The law's generating function P(t) = prod_i (q_i / (1 - (1 - q_i)
        t))^a_i is finite for t < 1/r, r = max_i (1 - q_i).  Each mass w_k
        is at most P(t) t^-k, so those past index K sum to at most
        P(t) t^-(K+1) / (1 - 1/t) for every 1 < t < 1/r; t is the
        minimizer for one NB of size sum a_i and ratio r, kept a relative
        2^-30 below 1/r (at a size under about 1e-9 K the minimizer rounds
        to 1/r, where 1 - (1 - q_i) t is 0).  That bound does not round to
        zero below 1e-16, as 1 - sum(masses) does.  Where
        1 - sum(masses) exceeds 1e-8 it is exact to far better than 1 %
        (its rounding error is near K * 1e-16), and 1.01 times it is the
        tighter bound.
        """
        b1 = self.beta1
        others = self.spec.components[1:]
        k = float(self.masses.shape[0])
        r = max(1.0 - b1 / c.scale for c in others)
        t = min(k / ((k + sum(c.shape for c in others)) * r), (1.0 - 2.0**-30) / r)
        log_bound = 0.0
        if t > 1.0:
            log_p = sum(
                c.shape * (math.log(b1 / c.scale) - math.log1p((b1 / c.scale - 1.0) * t))
                for c in others
            )
            log_bound = min(0.0, log_p - k * math.log(t) - math.log1p(-1.0 / t))
        if log_bound > math.log(1e-8):
            rest = 1.0 - float(self.masses.sum())
            if rest > 1e-8:
                return min(log_bound, math.log(1.01 * rest))
        return log_bound


def nb_sum_cumulants(spec: ConvolutionSpec) -> tuple[float, float, float]:
    """The first three cumulants of the exact weight law of a canonical spec:

    kappa_1 = sum a_i (1-q_i)/q_i, kappa_2 = sum a_i (1-q_i)/q_i^2,
    kappa_3 = sum a_i (1-q_i)(2-q_i)/q_i^3 with q_i = b1/b_i; all three
    inf once a q_i^3 underflows (scale ratios past about 1e108).
    """
    b1 = spec.components[0].scale
    k1 = k2 = k3 = 0.0
    for c in spec.components:
        q = b1 / c.scale
        if q**3 == 0.0:
            return math.inf, math.inf, math.inf
        k1 += c.shape * (1.0 - q) / q
        k2 += c.shape * (1.0 - q) / q**2
        k3 += c.shape * (1.0 - q) * (2.0 - q) / q**3
    return k1, k2, k3


def finite_cumulants(spec: ConvolutionSpec) -> tuple[float, float]:
    """kappa_1 and kappa_2 of the exact weight law, which size the exact
    routes' first stage.  Raises ConvergenceError where they are infinite:
    no stage within any cap holds such a law, so nothing is built."""
    mean, var, _ = nb_sum_cumulants(spec)
    if math.isinf(mean):
        raise ConvergenceError(
            "weight law has infinite cumulants (scale ratio past about 1e108): "
            "no table within max_terms holds it",
            terms_used=0,
        )
    return mean, var


def nb_sum_law(
    spec: ConvolutionSpec,
    ctrl: SeriesControl | None = None,
    count: int | None = None,
    upto: float = math.inf,
) -> NBSumLaw:
    """The exact weight law of a canonical spec of two or more components
    at k < count, by convolving the NB pmfs cut at count terms.

    count defaults to kappa_1 + 12 sqrt(kappa_2) + 32, kappa the law's
    cumulants (`finite_cumulants`), which leaves out mass far below any
    practical tolerance; that default is capped at upto + 1 masses and,
    given `ctrl`, at ctrl.max_terms + 1, the size `NBSumLaw.extend` stops
    at.
    """
    if count is None:
        mean, var = finite_cumulants(spec)
        cap = min(upto, math.inf if ctrl is None else ctrl.max_terms)
        count = min(int(min(mean + 12.0 * math.sqrt(var), cap)) + 32, cap + 1)
    b1 = spec.components[0].scale
    masses = None
    for c in spec.components[1:]:
        pmf = _nb_masses(c.shape, b1 / c.scale, count)
        masses = pmf if masses is None else np.convolve(masses, pmf)[:count]
    return NBSumLaw(masses, spec)


def _saddle_deviance(shapes: np.ndarray, x: float, beta1: float) -> np.ndarray:
    """D(a, u) = a log(a/u) + u - a at u = x/b1 for every shape a: in Loader's
    saddle-point form the kernel e^-u u^a / Gamma(a + 1) is c_a e^-D(a, u),
    c_a in `WeightLaw.kernel_table`.  As a log1p((a - u)/u) - (a - u), the
    argument clamped above -1 where a/u < 2^-53 (moving D, about u, by under
    2^-53 u log(u/a)); where a/u or u could overflow, as a (log a - log u) - (a - u)."""
    u = x / beta1
    d = shapes - u
    if shapes[-1] * 1e-307 < u < math.inf:
        return shapes * np.log1p(np.maximum(d / u, 2.0**-53 - 1.0)) - d
    return shapes * (np.log(shapes) - (math.log(x) - math.log(beta1))) - d


def mixture_density(law: WeightLaw, x: float) -> tuple[float, float]:
    """sum_k w_k g(x; rho + k, b1) at x > 0 over `law`, and its tail bound.

    The kernel is g(x; a, b1) = (a/x) k_a(u) (`_saddle_deviance`).  The sum
    is taken in log space, 1/x included before the one exp, so kernels and
    masses far outside the double range still combine.  The bound is the
    law's bound on the mass it leaves out times the largest kernel value a
    later term could take.  Past the kernel peak each left-out term can
    carry a larger kernel than any in the table, so an exact law bounds
    that mass in log space: 1 - sum(masses) rounds to zero below about 1e-16.
    """
    shapes, _, log_weights = law.kernel_table
    logs = log_weights - _saddle_deviance(shapes, x, law.beta1)
    m = float(logs.max())
    value = math.exp(m - math.log(x)) * float(np.exp(logs - m).sum()) if m > -math.inf else 0.0
    peak = _log_kernel_peak(x, law.rho + law.masses.shape[0], law.beta1)
    log_tail = law.log_mass_past + math.log(2.0) + peak
    return value, math.exp(log_tail) if log_tail < 709.0 else math.inf


#: u = y/b1 from which `mixture_cdf` takes its kernel sums in place of one
#: gammainc per mass.  Measured per point on NB-sum laws of K = 36-970
#: masses at u = 8-1024: the gammainc sum costs 14-230 us (75-310 ns per
#: mass, more as u grows), the kernel sums 12-38 us, so on a law shared by
#: many points they win at every u measured; no size condition on K pays.
#: What decides is their x-free parts, 63-114 us once per law: a law used
#: at one point (a per-point call, or the renewal routes' one law per
#: composition) loses below K of about 300.  The renewal routes stay at
#: u <= 34 (t = 10, scales >= 0.3), so below 64 the sum stays as written,
#: and there a route's stage starts no longer than the point's kernel
#: needs (`_kernel_cut`).
_CDF_KERNEL_SUM_FROM = 64.0


def _kernel_cut(spec: ConvolutionSpec, x: float, quantity: str) -> float:
    """The last index of a point's first stage over a weight law:
    max(u - rho, 0) + 8 sqrt(u) + 32 at u = x/b1, for the density at every
    u and for the CDF below `_CDF_KERNEL_SUM_FROM`; inf elsewhere (and at
    a point that is not finite and >= 0, which the entry check rejects).

    At integer a, P(a, u) is the chance that a Poisson(u) count reaches
    a, and the density kernel g(x; a, b1) is the Poisson(u) mass at a - 1
    over b1 (times b1, at most that chance at a - 1).  By a Chernoff
    bound both are below e^-32 (e^-40 below u = 64) once a passes
    u + 8 sqrt(u) + 31.  A stage too short for the point's tolerance (a
    value far below that: deep in the left tail, or a law whose mass sits
    far past the point) is extended by `converge`.  From
    `_CDF_KERNEL_SUM_FROM` on, the CDF points of a grid share one stage
    and its cached `cdf_terms`, so that stage is not cut.  The cut grows
    with x, so a request's farthest point has its farthest cut."""
    u = x / spec.components[0].scale
    if not 0.0 <= u < (_CDF_KERNEL_SUM_FROM if quantity == "cdf" else math.inf):
        return math.inf
    return int(max(u - spec.total_shape, 0.0) + 8.0 * math.sqrt(u) + 32.0)


def mixture_cdf(law: WeightLaw, y: float) -> tuple[float, float]:
    """sum_k w_k P(rho + k, u) over `law`, u = y/b1, clamped to 1, and its
    tail bound.

    P is the regularized lower incomplete gamma function.  It decreases in
    the shape, so the left-out mass times P(rho + K, u) bounds the terms
    past the table's last index K - 1.  The left-out mass is taken as
    1 - sum(masses): P <= 1, so where that rounds to zero the terms it
    misses are below the double spacing at the value.

    Below u = `_CDF_KERNEL_SUM_FROM` the sum is taken as written, one
    gammainc per mass.  From it on, the recurrence P(a, u) = P(a + 1, u) +
    k_a(u), with k_a(u) = e^-u u^a / Gamma(a + 1), turns the same sum into
    kernel sums with x-free weights and one incomplete-gamma value (W_m the
    masses up to m, S_m those past it, W = sum(masses)):

        lower:  sum_m W_m k_(rho+m)(u) + W P(rho + K, u)
        upper:  W - [sum_m S_m k_(rho+m)(u) + W Q(rho, u)]

    All their terms are non-negative.  The upper form, whose bracket is
    W - F to relative accuracy, is taken where u is above the law's mean
    shape, the lower one elsewhere.  k_a(u) is the density's kernel
    (`_saddle_deviance`), its x-free parts the law's `kernel_table` and
    `cdf_terms`, computed once per law (a cost `_CDF_KERNEL_SUM_FROM`
    weighs).  The choice depends on the law and u alone, and the tail
    bound is the same in both.
    """
    masses, rho = law.masses, law.rho
    u = y / law.beta1
    p_past = float(sp.gammainc(rho + masses.shape[0], u))
    if u < _CDF_KERNEL_SUM_FROM:
        value = float(masses @ sp.gammainc(rho + np.arange(masses.shape[0], dtype=float), u))
        total = float(masses.sum())
    else:
        log_cum, log_past, total, mean_shape = law.cdf_terms
        deviance = _saddle_deviance(law.kernel_table[0], y, law.beta1)
        if u > mean_shape:
            rest = float(np.exp(log_past - deviance).sum()) + total * float(sp.gammaincc(rho, u))
            value = total - rest
        else:
            value = float(np.exp(log_cum - deviance).sum()) + total * p_past
    return min(value, 1.0), max(1.0 - total, 0.0) * p_past


def converge(quantity: str, x: float, ctrl: SeriesControl, law: WeightLaw) -> EvalResult:
    """The mixture `quantity` ("density" or "cdf") at x > 0 over `law`.

    While the tail bound exceeds rel_tol times the value, the law is
    replaced by law.extend(ctrl), its next, longer stage.  terms_used is
    the size of the stage that converged.  When the law extends no
    further, an exact law (`NBSumLaw`) raises ConvergenceError; any other
    law, a fitted one at its table's end, is answered as it stands with
    its tail bound: the approximation's own error dominates any
    truncation.
    """
    mixture = mixture_cdf if quantity == "cdf" else mixture_density
    while True:
        value, tail = mixture(law, x)
        size = law.masses.shape[0]
        if tail <= ctrl.rel_tol * max(value, 5e-324):
            return EvalResult(value, size, tail)
        longer = law.extend(ctrl)
        if longer is None:
            if not isinstance(law, NBSumLaw):
                return EvalResult(value, size, tail)
            raise ConvergenceError(
                f"{quantity} series not converged after {size} terms (remaining weight "
                f"mass {1.0 - float(law.masses.sum()):.3e}, tail bound {tail:.3e})",
                terms_used=size, last_term=tail,
            )
        law = longer


def mixture_point(
    quantity: str, spec: ConvolutionSpec, x: float, ctrl: SeriesControl,
    weights: WeightLaw | None, first_law: Callable[..., WeightLaw], cut: bool = False,
) -> EvalResult:
    """The per-point body of every weight-law route: the entry check, then
    the mixture `quantity` at x over `weights`, or where that is None over
    first_law(spec, ctrl) of the canonical spec, run to convergence.

    With `cut` (the nbsum density and the CDF routes over a weight law)
    the first stage ends at the point's `_kernel_cut` where that is
    shorter: first_law takes it as `upto`, and `weights` is sliced to it.
    A law's stage is a prefix of every longer one, so both give the same
    stage.  Before slicing for a density, the shared law's
    `kernel_table` is computed, and the slice takes it as views.
    """
    spec, done = check_point(spec, x, quantity)
    if done is not None:
        return done
    upto = _kernel_cut(spec, x, quantity) if cut else math.inf
    if weights is None:
        weights = first_law(spec, ctrl, upto=upto) if cut else first_law(spec, ctrl)
    if upto < weights.masses.shape[0] - 1:
        if quantity == "density":
            weights.kernel_table
        weights = weights.stage(upto)
    return converge(quantity, x, ctrl, weights)


def nbsum_density(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """The exact density as a mixture over the weight law built by
    `nb_sum_law`: the moschopoulos series with its weights convolved in
    place of recursed, its first stage cut at the point's kernel
    (`mixture_point`).  Pass a prebuilt law as `weights` to share it."""
    return mixture_point("density", spec, x, ctrl, weights, nb_sum_law, cut=True)


def nbsum_cdf(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """The exact CDF as a mixture over the weight law built by
    `nb_sum_law`, its first stage cut at the point's kernel
    (`mixture_point`); `mathai.cdf_n` is this at mathai's control."""
    return mixture_point("cdf", spec, y, ctrl, weights, nb_sum_law, cut=True)


class Method(NamedTuple):
    """A method's name, per-point density and CDF, default control, and
    for each quantity whose weight law does not depend on the point, the
    builder of the law its per-point function takes as `weights` (and
    builds for itself when called without one): density_law /
    cdf_law(spec, ctrl).  Every per-point function with a `WeightLaw`
    runs `mixture_point`; for the mathai density at n >= 3 the law is a
    `mathai.ShellTable`, the series' x-free shells.  `cuts` names the
    quantities whose per-point function cuts its first stage at the
    point's kernel (the nbsum density, and every CDF over a weight law:
    the exact ones and the approximation's); their law builders take the
    cut as `upto`.  The approximation's density is not cut: its fitted
    stages would extend at many points."""

    name: str
    density: Callable[..., EvalResult]
    cdf: Callable[..., EvalResult]
    control: SeriesControl
    density_law: Callable[[ConvolutionSpec, SeriesControl], object] | None = None
    cdf_law: Callable[[ConvolutionSpec, SeriesControl], WeightLaw] | None = None
    cuts: tuple[str, ...] = ()


#: `auto`'s predicted cost of building an exact weight law of K masses
#: over n components, in multiply-adds of `nb_sum_law`'s convolution:
#: (n - 2) K^2 by convolution, K (_RECURSION_STEP + _RECURSION_SQUARE K)
#: by the recursion (`moschopoulos`): K Python steps and K^2/2
#: multiply-adds in numpy dots.  Fitted to crossovers measured with both
#: builds at K masses: the convolution is the cheaper up to K of about
#: 6,250 at n = 4, 3,600 at n = 5, 2,400 at n = 6 and 1,900 at n = 7,
#: and at n = 3 nearly up to the 10,000 cap.  Masses in the subnormal
#: range slow the convolution by up to 2x, a cost n and K do not show: on
#: a seeded sweep of 1,080 specs (n = 3..5, scale ratios up to 1e4) 97 %
#: of the chosen builds were within 1.25x of the cheaper one, all within
#: 1.55x.
_RECURSION_STEP = 8_400.0
_RECURSION_SQUARE = 0.65


def _auto_exact(spec: ConvolutionSpec, quantity: str, points: Sequence[float]) -> str:
    """The exact route `auto` takes for a canonical spec of three or more
    components: nbsum unless the recursion is predicted to build the first
    stage the request needs more cheaply.

    The law's cumulant size, K = kappa_1 + 12 sqrt(kappa_2) + 32 at the
    default cap (infinite cumulants give the cap; both routes then raise
    before building), is the size the cost fit was made at.  nbsum's
    stage is K cut at the farthest point's `_kernel_cut`, as `evaluate`
    builds it; the recursion's is K for the density, which
    `moschopoulos.density` does not cut, and the same cut K for the CDF.
    Without points both are K."""
    mean, var, _ = nb_sum_cumulants(spec)
    full = min(mean + 12.0 * math.sqrt(var), DEFAULT_CONTROL.max_terms) + 32.0
    k = min(full, _kernel_cut(spec, max(points), quantity) + 1.0) if points else full
    k_rec = k if quantity == "cdf" else full
    cheaper = (len(spec) - 2) * k * k <= k_rec * (_RECURSION_STEP + _RECURSION_SQUARE * k_rec)
    return "nbsum" if cheaper else "moschopoulos"


def lookup(
    method: str,
    spec: ConvolutionSpec,
    quantity: str = "density",
    points: Sequence[float] = (),
) -> Method:
    """The method `method` names for a canonical spec, to evaluate
    `quantity` at `points`.

    "auto" stands for mathai when the spec has at most two components;
    past that for nbsum, unless the recursion is predicted to build the
    first weight stage the request needs more cheaply (`_auto_exact`,
    which sizes nbsum's stage by the points), then for moschopoulos.  Both
    are exact at the default control.  Without points the stages are
    priced at the law's cumulant size.  The mathai CDF is `mathai.cdf_n` at
    every n.  Every CDF over a weight law, the approximation's included,
    cuts its points' stages (`Method.cuts`).  The functions are read off
    their modules at each call, so one that a test or tracer has replaced
    there is the one that runs.
    (Imported here because the method modules import this one.)
    """
    from . import barnabani, mathai, moschopoulos

    n = len(spec)
    if method == "auto":
        method = "mathai" if n <= 2 else _auto_exact(spec, quantity, points)
    if method == "nbsum":
        return Method(
            method, nbsum_density, nbsum_cdf, DEFAULT_CONTROL, nb_sum_law, nb_sum_law,
            ("density", "cdf"),
        )
    if method == "mathai" and n <= 2:
        fns = mathai.density2, mathai.cdf_n, DEFAULT_CONTROL
        return Method(method, *fns, cdf_law=nb_sum_law, cuts=("cdf",))
    if method == "mathai":
        fns = mathai.density_n, mathai.cdf_n, mathai.CONTROL_N
        return Method(method, *fns, mathai.ShellTable, nb_sum_law, ("cdf",))
    if method == "moschopoulos":
        law = moschopoulos.first_weights
        return Method(
            method, moschopoulos.density, moschopoulos.cdf, DEFAULT_CONTROL, law, law,
            ("cdf",),
        )
    if method == "approx":
        law = barnabani.approx_law
        return Method(
            method, barnabani.density_approx, barnabani.cdf_approx,
            barnabani.CONTROL_APPROX, law, law, ("cdf",),
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
    before any work.  `method` is a name or "auto", resolved for the
    canonical spec, quantity and points by `lookup`.  Where the weight law
    does not depend on the point (the moschopoulos and nbsum series, the
    approximation, the mathai CDF) its first stage is built once and
    handed to the per-point function at each point as `weights`; a point
    that needs more terms extends it for itself, so each result equals the
    per-point call on that point alone.  Where the route cuts each point's
    stage at its kernel (`Method.cuts`: the nbsum density and the CDFs
    over a weight law) the shared stage is built only to the farthest point's cut, the
    one at the largest point; a CDF with a point from u = 64 on gets the
    whole first stage.  For the mathai density at n >= 3 the law is a
    shell table (`mathai.ShellTable`), grown in place as the points need.
    The n = 2 mathai density (a closed 1F1 form) runs per point.  `ctrl`
    defaults to the method's own control.
    """
    spec = canonicalize(spec)
    xs = [float(x) for x in points]
    chosen = lookup(method, spec, quantity, xs)
    ctrl = chosen.control if ctrl is None else ctrl
    open_points = [check_point(spec, x, quantity)[1] is None for x in xs]
    fn = getattr(chosen, quantity)
    build = getattr(chosen, f"{quantity}_law")
    if build is None or not any(open_points):
        return [fn(spec, x, ctrl) for x in xs]
    if quantity in chosen.cuts:
        law = build(spec, ctrl, upto=_kernel_cut(spec, max(xs), quantity))
    else:
        law = build(spec, ctrl)
    return [fn(spec, x, ctrl, weights=law) for x in xs]
