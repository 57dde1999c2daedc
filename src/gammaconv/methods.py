"""What the density/CDF methods share, and the registry that names them.

The series methods all evaluate a gamma-kernel mixture
sum_k w_k g(x; rho + k, b1), b1 the minimum scale, and differ only in how
they build the masses w_k, their weight law.  Here are the entry check
every method runs first (a single component's CDF is
`specfun.incomplete_gamma`), the gamma kernel, the weight law and its exact
negative-binomial-sum constructor, the mixture evaluator (`mixture_rows`:
a block of rows' kernel sums, each over its own prefix of one law), the
one convergence loop (`converge_rows`), the one per-point body of every
weight-law route (`mixture_point`, the one-row case: the moschopoulos
series, the approximation, and the nbsum route, whose CDF is also the
mathai CDF), the method registry with `auto`'s cost rule, and `evaluate`,
which answers many points of one spec as rows over one weight law.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    deviance,
    gamma_kernel,
    incomplete_gamma,
    log_gamma_ratio,
    stirling_error,
    stirling_series,
)

__all__ = [
    "METHODS",
    "Method",
    "check_point",
    "log_gamma_pdf",
    "log_weight_constant",
    "WeightLaw",
    "NBSumLaw",
    "nb_sum_law",
    "poisson_masses",
    "mixture_rows",
    "converge_rows",
    "Answers",
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
    (C = prod (b1/b_i)^a_i) and diverges for rho < 1.  A single
    component (a, b) has the CDF P(a, x/b) (`specfun.incomplete_gamma`).
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
        return spec, EvalResult(math.exp(log_weight_constant(spec)) / beta1, 1, 0.0)
    if len(spec) == 1:
        (c,) = spec.components
        if quantity == "cdf":
            return spec, EvalResult(incomplete_gamma(c.shape, x / c.scale)[0], 1, 0.0)
        return spec, EvalResult(math.exp(log_gamma_pdf(x, c.shape, c.scale)), 1, 0.0)
    return spec, None


def log_weight_constant(spec: ConvolutionSpec) -> float:
    """log C = sum a_i log(b1/b_i) of a canonical spec, C the first mass
    of its exact weight law."""
    return float(np.sum(spec.shapes * (math.log(spec.scales[0]) - np.log(spec.scales))))


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
    """The masses w_0..w_K of the mixture sum_k w_k g(.; rho + k, b1).

    Built from masses directly, as Barnabani's GNBD fit is, a law is its
    whole table and never grows; the mass it leaves out is taken as
    1 - sum(masses).  The exact law (`NBSumLaw`) grows past its masses
    instead (`NBSumLaw.grow`).  Each row of the mixture sums
    (`mixture_rows`) reads its own prefix of a law: of its cached x-free
    tables (`kernel_table`, and from u = 64 on the CDF's
    `log_cdf_weights`), and `prefix_total(s)` and `log_mass_past` at the
    row's size.
    """

    def __init__(self, masses: np.ndarray, rho: float, beta1: float):
        self.masses = masses
        self.rho = rho
        self.beta1 = beta1
        #: sum(masses), summed as np.sum sums.
        self.total = float(masses.sum())

    def prefix_total(self, size: int) -> float:
        """sum(masses[:size]), summed as np.sum sums that prefix."""
        return self.total if size == self.masses.shape[0] else float(self.masses[:size].sum())

    def prefix_totals(self, sizes: list[int]) -> list[float]:
        """`prefix_total` at every size, bit for bit: past one size in one
        `np.add.reduceat` over the masses between two zeros, where each
        segment [0, size] is reduced as np.sum reduces the prefix alone,
        its pairwise sum added to a leading 0."""
        if len(sizes) == 1:
            return [self.prefix_total(sizes[0])]
        bounds = np.zeros(2 * len(sizes), dtype=np.intp)
        bounds[1::2] = np.add(sizes, 1)
        return np.add.reduceat(self._zero_padded, bounds)[::2].tolist()

    @cached_property
    def _zero_padded(self) -> np.ndarray:
        return np.concatenate(([0.0], self.masses, [0.0]))

    def log_mass_past(self, size: int) -> float:
        """log of a bound on the mass past the prefix of `size` masses:
        log(1 - its sum), -inf where that rounds to zero."""
        rest = 1.0 - self.prefix_total(size)
        return math.log(rest) if rest > 0.0 else -math.inf

    @cached_property
    def kernel_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x-free parts of both mixture sums' kernels (`_saddle_deviance`):
        the shapes a = rho + k, log c_a = -s(a) - log(2 pi a)/2 (s the Stirling
        error) and the density's log weights log(a c_a w_k).  Elementwise in
        k, so a prefix of it is a shorter law's own table to the bit."""
        shapes = self.rho + np.arange(self.masses.shape[0], dtype=float)
        log_c = -stirling_error(shapes) - 0.5 * np.log(2.0 * math.pi * shapes)
        with np.errstate(divide="ignore"):
            return shapes, log_c, np.log(self.masses) + log_c + np.log(shapes)

    @cached_property
    def log_cdf_weights(self) -> np.ndarray:
        """log W_m + log c_a, W_m the masses up to index m and c_a as in
        `kernel_table`: the x-free part of the CDF's saddle-point kernel
        terms (`_saddle_terms`).  W_m is a running sum, the same in every
        prefix."""
        with np.errstate(divide="ignore"):
            return self.kernel_table[1] + np.log(np.cumsum(self.masses))


#: Size from which `_nb_masses` takes its grouped Stirling form: past it the
#: plain form's rounding passes 3e-14, below it the plain form is far cheaper.
_NB_GROUPED_FROM = 64.0


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

    Below that size, (a)_k / k! = Gamma(a + k) / (Gamma(a) k!) is the
    running product of (a + j)/(j + 1) for k < 128, where it stays below
    1e58, and past that lgamma(a + k) - lgamma(k + 1) takes the grouped
    Stirling form (`specfun.log_gamma_ratio`): both lgamma values are near
    k log k, and their plain difference would lose about k log k times
    1e-16 (2e-12 relative on a mass at k = 750).
    """
    if a >= _NB_GROUPED_FROM:
        k = np.arange(1, count, dtype=float)
        n = a + k
        log_w = (
            0.5 * np.log(a / (2.0 * math.pi * n * k))
            + stirling_error(n)
            - stirling_series(a)
            - stirling_error(k)
            - deviance(a, n * q)
            - deviance(k, n * (1.0 - q))
        )
        return np.concatenate(([q**a], np.exp(log_w)))[:count]
    k = np.arange(count, dtype=float)
    head = np.empty(min(count, 128))
    head[0] = 1.0
    np.divide(k[: head.shape[0] - 1] + a, k[1 : head.shape[0]], out=head[1:])
    log_ratio = np.log(np.multiply.accumulate(head, out=head))
    if count > 128:
        tail = log_gamma_ratio(k[128:] + 1.0, a - 1.0) - math.lgamma(a)
        log_ratio = np.concatenate((log_ratio, tail))
    return np.exp(a * math.log(q) + log_ratio + k * math.log1p(-q))


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
    log_w = -stirling_error(m) - deviance(m, mean) - 0.5 * np.log(2.0 * math.pi * m)
    return np.concatenate(([math.exp(-mean)], np.exp(log_w)))[:count]


class NBSumLaw(WeightLaw):
    """A prefix of the exact weight law of a canonical spec of two or more
    components: the law of a sum of independent negative binomials
    NB(a_i, q_i), q_i = b1/b_i, over the components past the first.

    Every law is an exact prefix: a longer one repeats its masses bit for
    bit at every count, as measured up to 40 and about the convolution's
    block edges (`nb_sum_law` says how).  `grow`
    builds a longer one by convolving the NB pmfs cut at its size;
    `moschopoulos.WeightDistribution` grows by the recursion instead.
    """

    def __init__(self, masses: np.ndarray, spec: ConvolutionSpec):
        super().__init__(masses, spec.total_shape, spec.components[0].scale)
        self.spec = spec

    def grow(self, upto: int) -> NBSumLaw:
        """The law w_0..w_upto, upto past this one's last index."""
        return nb_sum_law(self.spec, count=upto + 1)

    def log_mass_past(self, size: int) -> float:
        """log of a bound on the mass past the prefix of `size` masses.

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
        k = float(size)
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
            rest = 1.0 - self.prefix_total(size)
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
    routes' first law.  Raises ConvergenceError where they are infinite:
    no law within any cap holds all their mass, so nothing is built."""
    mean, var, _ = nb_sum_cumulants(spec)
    if math.isinf(mean):
        raise ConvergenceError(
            "weight law has infinite cumulants (scale ratio past about 1e108): "
            "no table within max_terms holds it",
            terms_used=0,
        )
    return mean, var


#: Masses of the running law that one `nb_sum_law` convolution takes at once.
_CONVOLVE_BLOCK = 256


def nb_sum_law(
    spec: ConvolutionSpec,
    ctrl: SeriesControl | None = None,
    count: int | None = None,
    upto: float = math.inf,
) -> NBSumLaw:
    """The exact weight law of a canonical spec of two or more components
    at k < count, by convolving the NB pmfs cut at count terms.

    Each convolution computes only the count masses kept, about K^2/2
    multiply-adds: the running law goes in blocks of `_CONVOLVE_BLOCK`
    masses, the one from s convolved with the pmf cut at count + 1 - s,
    never the shorter operand.  One mass past count is built and dropped:
    np.convolve sums the last mass of a block of at most 11 masses on its
    short-kernel path, in another order than a longer law's dot product.

    count defaults to kappa_1 + 12 sqrt(kappa_2) + 32, kappa the law's
    cumulants (`finite_cumulants`), which leaves out mass far below any
    practical tolerance; that default is capped at upto + 1 masses and,
    given `ctrl`, at ctrl.max_terms + 1, the size `converge_rows` grows
    it to at most.
    """
    if count is None:
        mean, var = finite_cumulants(spec)
        cap = min(upto, math.inf if ctrl is None else ctrl.max_terms)
        count = min(int(min(mean + 12.0 * math.sqrt(var), cap)) + 32, cap + 1)
    b1 = spec.components[0].scale
    pmfs = [_nb_masses(c.shape, b1 / c.scale, count + 1) for c in spec.components[1:]]
    masses = pmfs[0]
    for pmf in pmfs[1:]:
        out = np.convolve(pmf, masses[:_CONVOLVE_BLOCK])[: count + 1]
        for s in range(_CONVOLVE_BLOCK, count, _CONVOLVE_BLOCK):
            out[s:] += np.convolve(pmf[: count + 1 - s], masses[s : s + _CONVOLVE_BLOCK])[: count + 1 - s]
        masses = out
    return NBSumLaw(masses[:count], spec)


def _saddle_deviance(
    shapes: np.ndarray, xs: list[float], beta1: float, last: list[float]
) -> np.ndarray:
    """D(a, u) = a log(a/u) + u - a at u = x/b1, a row per point x and a
    column per shape a: in Loader's saddle-point form the kernel
    e^-u u^a / Gamma(a + 1) is c_a e^-D(a, u), c_a in `WeightLaw.kernel_table`.
    As a log1p((a - u)/u) - (a - u), the argument clamped above -1 where
    a/u < 2^-53 (moving D, about u, by under 2^-53 u log(u/a)); in a row
    whose largest shape last[i] over u could overflow, or whose u does, as
    a (log a - log u) - (a - u).  The first form is taken in those rows
    too, under the callers' errstate, and replaced."""
    u = np.array(xs) / beta1
    d = shapes - u[:, None]
    dev = shapes * np.log1p(np.maximum(d / u[:, None], 2.0**-53 - 1.0)) - d
    far = [
        i for i, (x, top) in enumerate(zip(xs, last)) if not top * 1e-307 < x / beta1 < math.inf
    ]
    if far:
        log_u = np.log([xs[i] for i in far]) - math.log(beta1)
        dev[far] = shapes * (np.log(shapes) - log_u[:, None]) - d[far]
    return dev


#: Entries (rows times masses) one block of `mixture_rows`' kernel sums
#: holds: its temporaries, 64 kB each, stay in a core's cache, so a law
#: of 2,000 masses runs four rows at a time.
_BLOCK_ENTRIES = 8192


def _blocks(count: int, width: int) -> list[slice]:
    """`count` consecutive rows in blocks of at most `_BLOCK_ENTRIES`
    entries at `width` entries a row, one row at least."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _row_bounds(sizes: list[int], width: int) -> tuple[np.ndarray, slice]:
    """`reduceat` indices over a rows x width array, flattened, and the
    positions of the reduction that hold each row's own prefix of sizes[i]
    entries, summed by itself.  Where a row is shorter than `width` its
    start is followed by its end, and the entries past it, reduced at the
    odd positions, are dropped."""
    starts = np.arange(0, len(sizes) * width, width)
    if min(sizes) == width:
        return starts, slice(None)
    bounds = np.column_stack((starts, starts + sizes)).ravel()
    return (bounds[:-1] if sizes[-1] == width else bounds), slice(None, None, 2)


def _density_rows(
    law: WeightLaw, xs: list[float], sizes: list[int]
) -> tuple[list[float], list[float]]:
    """sum_k w_k g(x; rho + k, b1) at every x > 0 over the law's first
    sizes[i] masses, and its tail bound.

    The kernel is g(x; a, b1) = (a/x) k_a(u) (`_saddle_deviance`).  Each row
    is summed in log space, 1/x included before the one exp, so kernels and
    masses far outside the double range still combine.  The bound is the
    law's bound on the mass a row leaves out times the largest kernel value
    a later term could take.  Past the kernel peak each left-out term can
    carry a larger kernel than any in the row, so an exact law bounds that
    mass in log space: 1 - sum(masses) rounds to zero below about 1e-16.
    """
    rho, beta1 = law.rho, law.beta1
    shapes, _, log_weights = law.kernel_table
    peaks, sums = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for block in _blocks(len(sizes), max(sizes)):
            size = sizes[block]
            width = max(size)
            logs = log_weights[:width] - _saddle_deviance(
                shapes[:width], xs[block], beta1, [rho + (n - 1) for n in size]
            )
            bounds, rows = _row_bounds(size, width)
            peak = np.maximum.reduceat(logs.ravel(), bounds)[rows]
            shift = np.where(peak > -math.inf, peak, 0.0)
            sums += np.add.reduceat(np.exp(logs - shift[:, None]).ravel(), bounds)[rows].tolist()
            peaks += peak.tolist()
    values, tails, last_size = [], [], None
    for x, size, peak, total in zip(xs, sizes, peaks, sums):
        values.append(math.exp(peak - math.log(x)) * total if peak > -math.inf else 0.0)
        if size != last_size:  # rows of one size share their left-out mass
            log_past, last_size = law.log_mass_past(size) + math.log(2.0), size
        log_tail = log_past + _log_kernel_peak(x, rho + size, beta1)
        tails.append(math.exp(log_tail) if log_tail < 709.0 else math.inf)
    return values, tails


#: u = y/b1 from which a CDF row's kernels come from the law's shared
#: saddle-point tables; below it from one anchor a row, so that a law used at
#: one point (a per-point call, a renewal composition) builds no table.
_CDF_KERNEL_SUM_FROM = 64.0


def _kernel_cut(spec: ConvolutionSpec, x: float) -> float:
    """The last index of a point's first row over a weight law, for the
    density and the CDF alike: max(u - rho, 0) + 8 sqrt(u) + 32 at
    u = x/b1; inf at a point that is not finite and >= 0, which the entry
    check rejects.

    At integer a, P(a, u) is the chance that a Poisson(u) count reaches
    a, and the density kernel g(x; a, b1) is the Poisson(u) mass at a - 1
    over b1 (times b1, at most that chance at a - 1).  By a Chernoff
    bound both are below e^-32 once a passes u + 8 sqrt(u) + 31.  A row
    too short for the point's tolerance (a value far below that: deep in
    the left tail, or a law whose mass sits far past the point) moves on
    in `converge_rows`.  The cut grows with x, so a request's farthest
    point has its farthest cut."""
    u = x / spec.components[0].scale
    if not 0.0 <= u < math.inf:
        return math.inf
    return int(max(u - spec.total_shape, 0.0) + 8.0 * math.sqrt(u) + 32.0)


def _geometric_count(r: float) -> int:
    """E(r) = ceil(log(2^-53 (1 - r)) / log r), 0 < r < 1: the kernels
    k_(a+j)(u) past the first E, whose ratios u/(a + j) fall from
    r = u/a, sum to at most k_a(u) r^E / (1 - r), below 2^-53 of P(a, u)."""
    return math.ceil(math.log(2.0**-53 * (1.0 - r)) / math.log(r))


#: The fewest kernels a CDF row continues by: E(0.75) = 133.  Every row
#: up to r = 0.75 takes this one count, so most rows of a call share one
#: width.
_CONTINUATION = _geometric_count(0.75)

#: The largest r = u/(rho + L) at which a CDF row of L masses takes
#: P(rho + L, u) as the continuation of its own kernels, by E(r) of them
#: (775 at the cap); past it `specfun.incomplete_gamma` answers.
_CONTINUE_TO = 0.95


def _continuation(u: float, shape: float) -> int:
    """How many kernels k_(a+j)(u) past its last a CDF row sums to take
    P(a, u), a = `shape`: E(r) at r = u/a (`_geometric_count`), at least
    `_CONTINUATION`; 0 past `_CONTINUE_TO`, where
    `specfun.incomplete_gamma` answers instead."""
    r = u / shape
    if r > _CONTINUE_TO:
        return 0
    return _CONTINUATION if r <= 0.75 else _geometric_count(r)


def _cdf_rows(
    law: WeightLaw, ys: list[float], sizes: list[int]
) -> tuple[list[float], list[float]]:
    """sum_k w_k P(rho + k, u) at every u = y/b1 over the law's first
    sizes[i] masses, clamped to 1, and its tail bound.

    P is the regularized lower incomplete gamma function.  It decreases in
    the shape, so the left-out mass times P(rho + L, u) bounds the terms
    past a row of L masses.  The left-out mass is taken as
    1 - sum(masses): P <= 1, so where that rounds to zero the terms it
    misses are below the double spacing at the value.

    The recurrence P(a, u) = P(a + 1, u) + k_a(u), with
    k_a(u) = e^-u u^a / Gamma(a + 1) (DLMF 8.8.5), turns every row into
    one form of non-negative terms,

        sum_(m<L) W_m k_(rho+m)(u) + W_(L-1) P(rho + L, u),

    W_m the masses up to index m, a running sum and so the same in every
    prefix, and P(rho + L, u) and W_(L-1) the tail bound's own values
    (W_(L-1) summed as np.sum sums, the closer rounding; every row's at
    once, `WeightLaw.prefix_totals`).  P(rho + L, u)
    is the row's own kernels continued past its last, by the row's own
    count (`_continuation`) wherever u/(rho + L) is at most
    `_CONTINUE_TO`; elsewhere `specfun.incomplete_gamma`.  Below u =
    `_CDF_KERNEL_SUM_FROM` a row takes its kernels from one anchor
    k_rho(u) (`specfun.gamma_kernel`) times the running product of
    u/(rho + m) (`_anchor_shapes`), sums its first L as one dot product
    with W and the rest as P; so a law used at one point builds no x-free
    table.  From it on the rows take the law's saddle-point kernels and
    continue each row's last kernel by the same running product
    (`_saddle_rows`).  Either way a row is the same to the bit in any call
    as alone, so rows of any length share one law.
    """
    rho, beta1 = law.rho, law.beta1
    values, tails, high = [0.0] * len(ys), [0.0] * len(ys), []
    shapes = cumulative = None
    prefixes = law.prefix_totals(sizes)
    for i, (y, size) in enumerate(zip(ys, sizes)):
        u = y / beta1
        if u >= _CDF_KERNEL_SUM_FROM:
            high.append(i)
            continue
        count = _continuation(u, rho + size)
        if shapes is None or shapes.shape[0] < size + count - 1:
            width = max(sizes)
            shapes = _anchor_shapes(rho, width + count)
            cumulative = np.add.accumulate(law.masses[:width])
        kernels = np.empty(size + count)
        kernels[0] = gamma_kernel(rho, u)
        np.divide(u, shapes[: kernels.shape[0] - 1], out=kernels[1:])
        np.multiply.accumulate(kernels, out=kernels)
        p = float(np.add.reduce(kernels[size:])) if count else incomplete_gamma(rho + size, u)[0]
        total = float(kernels[:size] @ cumulative[:size])
        values[i], tails[i] = _cdf_value(law, size, prefixes[i], total, p)
    if high:
        high_ys, high_sizes = [ys[i] for i in high], [sizes[i] for i in high]
        for i, size, total, p in zip(high, high_sizes, *_saddle_rows(law, high_ys, high_sizes)):
            values[i], tails[i] = _cdf_value(law, size, prefixes[i], total, p)
    return values, tails


def _cdf_value(
    law: WeightLaw, size: int, prefix: float, total: float, p: float
) -> tuple[float, float]:
    """A CDF row's value and tail bound from W_(L-1) = `prefix`, its
    kernel sum sum_(m<L) W_m k_(rho+m)(u) and p = P(rho + L, u), L = size
    (`_cdf_rows`).

    A fitted law holds the whole law but for a sliver (below 2^-54 of its
    mass for the GNBD), so where its whole table's P(rho + L, u) rounds to
    1, every kernel does and the CDF is 1; sum(masses) itself is off 1 by
    the rounding of the masses, to either side."""
    if p == 1.0 and size == law.masses.shape[0] and not isinstance(law, NBSumLaw):
        return 1.0, max(1.0 - prefix, 0.0)
    return min(total + prefix * p, 1.0), max(1.0 - prefix, 0.0) * p


def _saddle_rows(
    law: WeightLaw, ys: list[float], sizes: list[int]
) -> tuple[list[float], list[float]]:
    """The kernel sums and P(rho + L, u) of the CDF rows from u = 64 on
    (`_cdf_rows`): a block of rows at a time over the law's saddle-point
    kernels (`_saddle_terms`), each row summed over its own prefix
    (`_row_bounds`); P continued from each row's last kernel by the row's
    own count (`_continuation`), all such rows at once
    (`_continued_kernels`), or `specfun.incomplete_gamma`."""
    rho = law.rho
    totals, lasts = [], []
    for block in _blocks(len(ys), max(sizes)):
        terms, last = _saddle_terms(law, ys[block], sizes[block])
        bounds, own = _row_bounds(sizes[block], terms.shape[1])
        totals += np.add.reduceat(terms.ravel(), bounds)[own].tolist()
        lasts.append(last)
    us = [y / law.beta1 for y in ys]
    counts = [_continuation(u, rho + size) for u, size in zip(us, sizes)]
    ps = [
        0.0 if count else incomplete_gamma(rho + size, u)[0]
        for u, size, count in zip(us, sizes, counts)
    ]
    rows = [j for j, count in enumerate(counts) if count]
    if rows:
        past = _continued_kernels(
            [us[j] for j in rows], [rho + sizes[j] for j in rows],
            np.concatenate(lasts)[rows], [counts[j] for j in rows],
        )
        for j, value in zip(rows, past):
            ps[j] = value
    return totals, ps


def _anchor_shapes(rho: float, count: int) -> np.ndarray:
    """The shapes rho + m at 0 < m < count, which the CDF rows below u = 64
    share: the ratios u/(rho + m) of their kernels' running products.

    rho + m is taken as n (1 + f/n), n = floor(rho) + m and f the fraction
    of rho.  Rounded as n + f, the shapes of one binade would all lose the
    same low bits of f, an error that the kernels' cumulative product
    repeats term after term (3.6e-15 after 100 terms at rho = 7.77,
    against 4e-16)."""
    whole = float(math.floor(rho))
    shapes = np.arange(whole + 1.0, whole + count)
    if rho > whole:
        shapes *= 1.0 + (rho - whole) / shapes
    return shapes


def _saddle_terms(
    law: WeightLaw, ys: list[float], sizes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """W_m k_(rho+m)(u) from u = 64 on, a row per point y = u b1 and a
    column per m < max(sizes): the saddle-point kernels
    (`_saddle_deviance`) over the law's `log_cdf_weights`; and each row's
    last kernel k_(rho+L-1)(u) by itself, L = sizes[i].  Entries past a
    row's prefix may overflow or meet inf - inf; the caller drops them."""
    width = max(sizes)
    shapes, log_c, _ = law.kernel_table
    ends = [n - 1 for n in sizes]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        deviance = _saddle_deviance(shapes[:width], ys, law.beta1, [law.rho + n for n in ends])
        if min(sizes) == width:  # every row ends at the last column
            last = np.exp(log_c[width - 1] - deviance[:, width - 1])
        else:
            last = np.exp(log_c[ends] - deviance[range(len(sizes)), ends])
        return np.exp(law.log_cdf_weights[:width] - deviance), last


def _continued_kernels(
    us: list[float], shapes: list[float], kernels: np.ndarray, counts: list[int]
) -> list[float]:
    """sum_(1<=j<=E) k_(a-1+j)(u), E = counts[i], for each row's u, next
    shape a and last kernel k_(a-1)(u): the running products of
    u/(a - 1 + j), a row of them per point, each row summed over its own
    E entries alone (`_row_bounds`), so that a row is the same to the bit
    in any call."""
    width = max(counts)
    ratios = np.add.outer(shapes, _STEPS[:width])
    np.divide(np.array(us)[:, None], ratios, out=ratios)
    np.multiply.accumulate(ratios, axis=1, out=ratios)
    ratios *= kernels[:, None]
    bounds, own = _row_bounds(counts, width)
    return np.add.reduceat(ratios.ravel(), bounds)[own].tolist()


#: 0, 1, 2, ...: the steps j of `_continued_kernels`' shapes a + j, as many
#: as the longest continuation.
_STEPS = np.arange(float(_geometric_count(_CONTINUE_TO)))


def mixture_rows(
    quantity: str, law: WeightLaw, xs: list[float], sizes: list[int]
) -> tuple[list[float], list[float]]:
    """The mixture `quantity` ("density" or "cdf") at every point xs[i] > 0,
    row i over the first sizes[i] masses of `law`: the rows'
    values and tail bounds, as two lists.

    The kernel sums, the density's and, from u = 64 on, the CDF's, are
    taken for a block of rows at once (`_BLOCK_ENTRIES`): a rows x width
    array of kernel terms over the law's cached x-free tables, which
    every row shares.  (Below u = 64 a CDF row is a few numpy calls of
    its own, from one anchor kernel.)  A row shorter than its block's
    widest is reduced over its own prefix alone (`np.maximum.reduceat` /
    `np.add.reduceat`), so a row is the same to the bit in any block as
    alone.  Entries past a row's prefix, and rows of the far deviance
    form, may overflow or meet inf - inf; they are computed and dropped,
    so the saddle-point blocks silence those warnings.  The rest of a row
    is a few scalar steps, taken row by row: its tail bound (for the CDF
    one incomplete-gamma value, the row's own kernels continued, which
    the row's sum reuses) and the density's scaling.  So a one-row call (`mixture_point`) costs about
    what a per-point sum did.
    """
    return (_cdf_rows if quantity == "cdf" else _density_rows)(law, xs, sizes)


def converge_rows(
    quantity: str, xs: Sequence[float], ctrl: SeriesControl, law: WeightLaw,
    sizes: Sequence[int],
) -> list[EvalResult]:
    """The mixture `quantity` ("density" or "cdf") at every point xs[i] > 0,
    starting over the first sizes[i] masses of `law`, each row run to
    convergence.

    While a row's tail bound exceeds rel_tol times its value, the row
    moves on: its last index K grows to 1.5 K + 64, capped at
    ctrl.max_terms and, for a law that does not grow, at its last index.
    The rows that move are answered together, each over its own prefix of
    the law, so every row is the same as alone; the law grows (`grow`)
    only when a moving row passes its end, to the farthest of them.
    terms_used is the size of the prefix a row converged on.  When a row
    can move no further, an exact law (`NBSumLaw`) raises
    ConvergenceError, that of the first such row in order, as a per-point
    loop would; any other law, a fitted one at its table's end, answers
    the row as it stands with its tail bound: the approximation's own
    error dominates any truncation.
    """
    results: list[EvalResult] = [None] * len(xs)
    exact = isinstance(law, NBSumLaw)
    last = ctrl.max_terms if exact else min(ctrl.max_terms, law.masses.shape[0] - 1)
    rows, row_xs, row_sizes = range(len(xs)), xs, sizes
    failed: tuple[int, ConvergenceError] | None = None
    while True:
        values, tails = mixture_rows(quantity, law, row_xs, row_sizes)
        moving = []
        for row, size, value, tail in zip(rows, row_sizes, values, tails):
            if tail <= ctrl.rel_tol * max(value, 5e-324):
                results[row] = EvalResult(value, size, tail)
            elif size <= last:
                moving.append((row, size))
            elif not exact:
                results[row] = EvalResult(value, size, tail)
            elif failed is None or row < failed[0]:
                failed = row, ConvergenceError(
                    f"{quantity} series not converged after {size} terms (remaining weight "
                    f"mass {1.0 - float(law.masses[:size].sum()):.3e}, tail bound {tail:.3e})",
                    terms_used=size, last_term=tail,
                )
        if failed is not None:
            moving = [(row, size) for row, size in moving if row < failed[0]]
        if not moving:
            break
        rows = [row for row, _ in moving]
        row_xs = [xs[row] for row in rows]
        row_sizes = [min((size - 1) * 3 // 2 + 64, last) + 1 for _, size in moving]
        if max(row_sizes) > law.masses.shape[0]:
            law = law.grow(max(row_sizes) - 1)
    if failed is not None:
        raise failed[1]
    return results


class Answers(dict):
    """The results of a request's points, by point, as `evaluate` computes
    them.  Passed to a route's per-point function as `weights`, it makes
    that call return the point's result, so a request still calls the
    function once per point: the function `lookup` reads off its module,
    which a test or tracer may have replaced."""


def _first_rows(
    spec: ConvolutionSpec, xs: list[float], ctrl: SeriesControl,
    weights: object, first_law: Callable[..., object],
) -> tuple[object, list[int]]:
    """The law the rows at xs start over, `weights` or else
    first_law(spec, ctrl, upto) of the canonical spec with upto the
    farthest point's `_kernel_cut`, and each row's first size: the law's
    prefix to its point's cut, or the whole law where that is shorter.
    Over a law that is not a `WeightLaw` (`mathai.ShellTable`) there are
    no sizes."""
    cuts = [_kernel_cut(spec, x) for x in xs]
    law = first_law(spec, ctrl, upto=max(cuts)) if weights is None else weights
    if not isinstance(law, WeightLaw):
        return law, []
    return law, [min(c + 1, law.masses.shape[0]) for c in cuts]


def mixture_point(
    quantity: str, spec: ConvolutionSpec, x: float, ctrl: SeriesControl,
    weights: WeightLaw | Answers | None, first_law: Callable[..., WeightLaw],
) -> EvalResult:
    """The per-point body of every weight-law route: the point's result
    where `weights` holds the request's `Answers`; otherwise the entry
    check, then the mixture `quantity` at x over `weights`, or where that
    is None over first_law(spec, ctrl, upto) of the canonical spec, run to
    convergence as the one-row case of `converge_rows`.

    The row starts over its prefix that ends at the point's `_kernel_cut`
    (`_first_rows`), of `weights` or of a law built to that cut: a law is
    a prefix of every longer one, so both give the same row.
    """
    if isinstance(weights, Answers):
        return weights[x]
    spec, done = check_point(spec, x, quantity)
    if done is not None:
        return done
    law, sizes = _first_rows(spec, [x], ctrl, weights, first_law)
    return converge_rows(quantity, [x], ctrl, law, sizes)[0]


def nbsum_density(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """The exact density as a mixture over the weight law built by
    `nb_sum_law`: the moschopoulos series with its weights convolved in
    place of recursed, its first row cut at the point's kernel
    (`mixture_point`).  Pass a prebuilt law as `weights` to share it."""
    return mixture_point("density", spec, x, ctrl, weights, nb_sum_law)


def nbsum_cdf(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """The exact CDF as a mixture over the weight law built by
    `nb_sum_law`, its first row cut at the point's kernel
    (`mixture_point`); `mathai.cdf_n` is this at mathai's control."""
    return mixture_point("cdf", spec, y, ctrl, weights, nb_sum_law)


class Method(NamedTuple):
    """A method's name, per-point density and CDF, default control, and
    for each quantity whose weight law does not depend on the point, the
    builder of the law its per-point function takes as `weights` (and
    builds for itself when called without one): density_law /
    cdf_law(spec, ctrl, upto).  Every per-point function with a `WeightLaw`
    runs `mixture_point`, and `evaluate` answers its points as rows over
    one law (`converge_rows`); for the mathai density at n >= 3 the law is a
    `mathai.ShellTable`, the series' x-free shells.  Every row over a
    `WeightLaw` starts at its point's kernel cut, so an exact law builder
    stops at the farthest cut, `upto`."""

    name: str
    density: Callable[..., EvalResult]
    cdf: Callable[..., EvalResult]
    control: SeriesControl
    density_law: Callable[..., object] | None = None
    cdf_law: Callable[..., WeightLaw] | None = None


#: log of the smallest normal double, below which the recursion's
#: constant C is refused (`moschopoulos.build_weights`).
_LOG_TINY = math.log(sys.float_info.min)

#: The recursion's price per mass in `_auto_exact`, fitted to timed builds.
_RECURSION_STEP = 1_000.0
_RECURSION_SQUARE = 2.8


def _auto_exact(spec: ConvolutionSpec, points: Sequence[float]) -> str:
    """The exact route `auto` takes for a canonical spec of three or more
    components: nbsum unless the recursion is predicted to build the first
    law the request needs more cheaply: (n - 2) K^2 / 2 multiply-adds by
    convolution (`nb_sum_law` computes the kept half only) against
    K (_RECURSION_STEP + _RECURSION_SQUARE K); from n = 8 the recursion can
    be the cheaper.  Never the recursion where its constant C (the law's
    first mass, `log_weight_constant`) is below the smallest normal
    double: `moschopoulos.build_weights` refuses such a spec.

    The law's cumulant size, K = kappa_1 + 12 sqrt(kappa_2) + 32 at the
    default cap (infinite cumulants give the cap; both routes then raise
    before building), is the size the cost fit was made at.  Both routes'
    laws are K cut at the farthest point's `_kernel_cut`, as `evaluate`
    builds them, for the density and the CDF alike; without points they
    are K."""
    if log_weight_constant(spec) < _LOG_TINY:
        return "nbsum"
    mean, var, _ = nb_sum_cumulants(spec)
    full = min(mean + 12.0 * math.sqrt(var), DEFAULT_CONTROL.max_terms) + 32.0
    k = min(full, _kernel_cut(spec, max(points)) + 1.0) if points else full
    cheaper = (len(spec) - 2) * k * k / 2 <= k * (_RECURSION_STEP + _RECURSION_SQUARE * k)
    return "nbsum" if cheaper else "moschopoulos"


def lookup(method: str, spec: ConvolutionSpec, points: Sequence[float] = ()) -> Method:
    """The method `method` names for a canonical spec, to evaluate at
    `points`.

    "auto" stands for mathai when the spec has at most two components;
    past that for nbsum, unless the recursion is predicted to build the
    first weight law the request needs more cheaply (`_auto_exact`,
    which sizes both laws by the points' cuts), then for moschopoulos.
    Both are exact at the default control.  Without points the laws are
    priced at their cumulant size.  The mathai CDF is `mathai.cdf_n` at
    every n.  The functions are read off their modules at each call, so
    one that a test or tracer has replaced there is the one that runs.
    (Imported here because the method modules import this one.)
    """
    from . import barnabani, mathai, moschopoulos

    n = len(spec)
    if method == "auto":
        method = "mathai" if n <= 2 else _auto_exact(spec, points)
    if method == "nbsum":
        return Method(method, nbsum_density, nbsum_cdf, DEFAULT_CONTROL, nb_sum_law, nb_sum_law)
    if method == "mathai" and n <= 2:
        fns = mathai.density2, mathai.cdf_n, DEFAULT_CONTROL
        return Method(method, *fns, cdf_law=nb_sum_law)
    if method == "mathai":
        fns = mathai.density_n, mathai.cdf_n, mathai.CONTROL_N
        return Method(method, *fns, mathai.ShellTable, nb_sum_law)
    if method == "moschopoulos":
        law = moschopoulos.first_weights
        return Method(method, moschopoulos.density, moschopoulos.cdf, DEFAULT_CONTROL, law, law)
    if method == "approx":
        law = barnabani.approx_law
        return Method(
            method, barnabani.density_approx, barnabani.cdf_approx,
            barnabani.CONTROL_APPROX, law, law,
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

    Every point passes the entry check once, first, so a bad point raises
    before any weight law is built.  `method` is a name or "auto",
    resolved for the canonical spec and points by `lookup`.
    Where the weight law does not depend on the point (the moschopoulos
    and nbsum series, the approximation, the mathai CDF) the request runs
    as rows: its first law is built once (`_first_rows`), and
    `converge_rows` answers every point that the entry check leaves open
    over it, in blocks of rows, moving the rows that need more terms on
    together.  Each row is the mixture over its own prefix of the law, so
    each result equals the per-point call on that point alone, bit for
    bit.  Each row starts over its prefix to its point's kernel cut, and
    an exact law is built only to the farthest cut, the one at the
    largest point.  The route's per-point function is still called at
    every point, with the request's `Answers` as `weights`.  The mathai
    densities run per point: at n >= 3 over one shell table
    (`mathai.ShellTable`), grown in place as the points need; at n = 2 (a
    closed 1F1 form) alone.  `ctrl` defaults to the method's own control.
    """
    spec = canonicalize(spec)
    xs = [float(x) for x in points]
    chosen = lookup(method, spec, xs)
    ctrl = chosen.control if ctrl is None else ctrl
    settled = [check_point(spec, x, quantity)[1] for x in xs]
    fn = getattr(chosen, quantity)
    build = getattr(chosen, f"{quantity}_law")
    open_xs = [x for x, done in zip(xs, settled) if done is None]
    if build is None or not open_xs:
        return [fn(spec, x, ctrl) for x in xs]
    law, sizes = _first_rows(spec, open_xs, ctrl, None, build)
    if not isinstance(law, WeightLaw):
        return [fn(spec, x, ctrl, weights=law) for x in xs]
    rows = iter(converge_rows(quantity, open_xs, ctrl, law, sizes))
    answers = Answers((x, next(rows) if done is None else done) for x, done in zip(xs, settled))
    return [fn(spec, x, ctrl, weights=answers) for x in xs]
