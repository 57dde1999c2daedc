"""Exact pmf of renewal counts under mixture-of-exponentials holding times.

Four evaluation routes for Pr(N(t) = n):

* the direct Kummer-function formula for a two-component mixture
  (``pmf_s2``), which bypasses all convolution CDFs;
* the general mixture route over compositions of n (``pmf_general``),
  a sum of differences of convolution CDFs, which reduces to ``pmf_s2``
  for two components; kept as the paper's baseline and oracle for any S;
* the same composition sum at S = 2 with every H evaluated afresh
  (``pmf_raw_s2``), kept as an independent oracle and timing baseline;
* uniformization (``pmf_vector``): the holding times are phase-type, so
  one pass of non-negative updates, up to 16 steps at a time by one
  matrix product, gives Pr(N(t) = n) for every n <= n_max and any S.

``pmf`` selects one of them by the route name the CLI uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import methods, moschopoulos
from .errors import BudgetError, DomainError, FitFailureError
from .model import (
    ConvolutionSpec,
    GammaComponent,
    MixtureExpSpec,
    canonicalize,
    validate_mixture,
)
from .specfun import DEFAULT_CONTROL, SeriesControl, kummer_1f1, log_factorials

__all__ = [
    "RenewalQuery",
    "h_diff",
    "pmf_s2",
    "pmf_raw_s2",
    "pmf_general",
    "pmf_vector",
    "pmf",
    "pmf_normalization",
    "COMPOSITION_BUDGET",
]

#: Default cap on the number of compositions pmf_general may enumerate.
COMPOSITION_BUDGET = 1_000_000

#: Route names of ``pmf``, as the CLI offers them.
RENEWAL_METHODS = ("proposition", "raw-mathai", "raw-moschopoulos", "approx")

_NEG_INF = float("-inf")

#: Most uniformization steps per block: past 16 the walk gets no faster,
#: and its window copies grow as block + 1 times the state.
_STEP_BLOCK = 16


@dataclass(frozen=True)
class RenewalQuery:
    """A (time horizon, event count) query for the renewal pmf."""

    t: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise DomainError(f"t must be positive and finite, got {self.t}")
        if self.n < 0:
            raise DomainError(f"n must be >= 0, got {self.n}")


def h_diff(
    y: float,
    a1: int,
    b1: float,
    a2: int,
    b2: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """F(y; (a1,b1),(a2,b2)) - F(y; (a1+1,b1),(a2,b2)) in closed form.

    H(y) = y^(a1+a2) e^(-y/b1) / (b1^a1 b2^a2 Gamma(a1+a2+1))
           * 1F1(a2; a1+a2+1; y (1/b1 - 1/b2)).

    No ordering constraint on b1, b2; the 1F1 argument may be negative.
    Shapes are the Erlang integers of the renewal application; a1 = a2 = 0
    yields the survival e^(-y/b1) of a single exponential.
    """
    if y <= 0:
        raise DomainError(f"h_diff requires y > 0, got {y}")
    if a1 < 0 or a2 < 0:
        raise DomainError("h_diff requires non-negative integer shapes")
    if b1 <= 0 or b2 <= 0:
        raise DomainError("h_diff requires positive scales")
    z = y * (1.0 / b1 - 1.0 / b2)
    log_h = (
        (a1 + a2) * math.log(y)
        - y / b1
        - a1 * math.log(b1)
        - a2 * math.log(b2)
        - math.lgamma(a1 + a2 + 1.0)
        + kummer_1f1(a2, a1 + a2 + 1.0, z, ctrl)
    )
    return math.exp(log_h)


def _log_f1_family(n: int, z: float, ctrl: SeriesControl) -> list[float]:
    """log 1F1(m; n+1; z) for every m = 0..n+1 at a shared z >= 0.

    All parameters are integers, so every term is a ratio of integer
    gamma values; one lgamma lookup table serves the whole family.  The
    series length J is the term peak z plus a margin of c sqrt(z + 1) + 12
    terms, c = sqrt(2 (5 - log rel_tol + log(1 + z))): terms decay
    factorially past j ~ z for every row because the ratio is at most
    z / (j + 1).  Past 640 terms the rows are summed as arrays, in blocks
    of at most 2^16 terms.  An n over ctrl.max_terms raises BudgetError
    before anything of size n is built.
    """
    if n > ctrl.max_terms:
        raise BudgetError(
            f"1F1 family for n={n} is over the max_terms budget {ctrl.max_terms}"
        )
    if z == 0.0:
        return [0.0] * (n + 2)
    c = math.sqrt(2.0 * (-math.log(ctrl.rel_tol) + math.log1p(z) + 5.0))
    J = int(z + c * math.sqrt(z + 1.0) + 12.0)
    if J >= ctrl.max_terms:
        raise BudgetError(
            f"1F1 family at z={z:.6g} needs ~{J} terms, over the "
            f"max_terms budget {ctrl.max_terms}"
        )
    if (n + 2) * (J + 1) <= 640:
        # Tiny case: plain scalar recurrences beat array dispatch and the
        # largest term is only e^z, safely inside the double range.
        tol = ctrl.rel_tol
        out = [0.0] * (n + 2)
        for m in range(1, n + 2):
            term = 1.0
            total = 1.0
            for j in range(J):
                term *= (m + j) * z / ((n + 1 + j) * (j + 1.0))
                total += term
                if term < tol * total and j >= z:
                    break
            out[m] = math.log(total)
        return out
    G = np.concatenate(([math.inf], log_factorials(n + J + 2)))  # G[i] = lgamma(i)
    j = np.arange(J + 1)
    power, denom = j * math.log(z), G[n + 1 + j] - G[n + 1] + G[1 + j]  # log z^j, log (n+1)_j j!
    out = [0.0]
    step = max(1, 2**16 // (J + 1))  # rows per block of at most 2^16 terms
    for first in range(1, n + 2, step):
        m = np.arange(first, min(first + step, n + 2))
        log_terms = G[m[:, None] + j[None, :]] - G[m][:, None] + power - denom
        row_max = log_terms.max(axis=1, keepdims=True)
        out += (row_max[:, 0] + np.log(np.exp(log_terms - row_max).sum(axis=1))).tolist()
    return out


def pmf_s2(
    mix: MixtureExpSpec,
    q: RenewalQuery,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Pr(N(t) = n) for a two-component mixture, direct 1F1 formula.

    With z = t (1/b1 - 1/b2) >= 0 (swapping components if needed), the
    Kummer transformation folds both psi factors into one family
    F[m] = 1F1(m; n+1; z):

        psi(b1, b2, t, k, n) = e^(-t/b1) F[n - k]
        psi(b2, b1, t, n-k, n) = e^(-t/b2) 1F1(k; n+1; -z)
                               = e^(-t/b1) F[n + 1 - k],

    so one shared table covers every summand.  Summands are assembled in
    log space (binomial coefficient, powers of t, p and the scales), all
    non-negative, and summed in one pass against the largest so far.  A
    weight that rounds to 1 leaves the Poisson pmf of its component.

    Against the uniformization walk in extended precision (weights 0.4/0.6,
    scales 2/5) it reads 5.0e-14 relative at t = 10 (n <= 80), 1.6e-13 at
    t = 100 (n <= 150) and 3.9e-13 at t = 400 (n <= 300).
    """
    mix = validate_mixture(mix)
    if mix.size == 1:
        return _poisson_pmf(q.t / mix.scales[0], q.n)
    if mix.size != 2:
        raise DomainError(f"pmf_s2 requires a 2-component mixture, got {mix.size}")
    p = mix.weights[0]
    b1, b2 = mix.scales
    t, n = q.t, q.n
    z = t / b1 - t / b2
    if z < 0.0:
        p, b1, b2, z = 1.0 - p, b2, b1, -z
    if p in (0.0, 1.0):
        return _poisson_pmf(t / (b1 if p else b2), n)
    log_f1 = _log_f1_family(n, z, ctrl)
    log_p, log_1mp = math.log(p), math.log1p(-p)
    slope1, slope2 = log_p - math.log(b1), log_1mp - math.log(b2)
    lgf = [math.lgamma(k + 1.0) for k in range(n + 1)]
    top, total = _NEG_INF, 0.0
    for k in range(n + 1):
        hi, lo = log_p + log_f1[n - k], log_1mp + log_f1[n + 1 - k]
        if lo > hi:
            hi, lo = lo, hi
        log_term = (
            k * slope1 + (n - k) * slope2 - lgf[k] - lgf[n - k]
            + hi + math.log1p(math.exp(lo - hi))
        )
        if log_term > top:
            total = total * math.exp(top - log_term) + 1.0
            top = log_term
        else:
            total += math.exp(log_term - top)
    return min(math.exp(n * math.log(t) - t / b1 + top) * total, 1.0)


def _poisson_pmf(lam: float, n: int) -> float:
    """The Poisson(lam) mass at n, as `methods.poisson_masses` gives it."""
    return float(methods.poisson_masses(lam, n + 1)[n])


def _conv_cdf(
    components: list[tuple[int, float]],
    y: float,
    method: str,
    ctrl: SeriesControl | None,
    cache: dict | None = None,
) -> float:
    """CDF of a convolution of Erlang components, zero shapes dropped.

    The empty convolution is a point mass at zero, so its CDF is 1 for
    y > 0.  Remaining equal-scale components are merged by canonicalize.
    """
    kept = tuple(sorted((a, b) for a, b in components if a > 0))
    if not kept:
        return 1.0
    if cache is not None and kept in cache:
        return cache[kept]
    spec = canonicalize(
        ConvolutionSpec(tuple(GammaComponent(float(a), b) for a, b in kept))
    )
    chosen = methods.lookup(method, spec)
    try:
        value = chosen.cdf(spec, y, ctrl or chosen.control).value
    except FitFailureError:
        # Some compositions have weight cumulants no GNBD can match;
        # fall back to the exact series for those terms only.
        value = moschopoulos.cdf(spec, y, ctrl or DEFAULT_CONTROL).value
    if cache is not None:
        cache[kept] = value
    return value


def pmf_raw_s2(
    mix: MixtureExpSpec,
    q: RenewalQuery,
    method: str = "mathai",
    ctrl: SeriesControl | None = None,
) -> float:
    """Pr(N(t) = n) assembled from convolution-CDF differences (S <= 2).

    Same value contract as pmf_s2; exists as an independent oracle and as
    the timing baseline in which H is evaluated through a full CDF method:
    the composition sum of `pmf_general` with every H evaluated afresh,
    4(n + 1) CDF evaluations for n >= 1 (memoizing would change the
    baseline measured).  Each is a per-point call of the method's CDF;
    the exact ones start from a law cut at the point's kernel
    (`methods.mixture_point`), not from their law's whole cumulant size.
    """
    mix = validate_mixture(mix)
    if mix.size > 2:
        raise DomainError(f"pmf_raw_s2 requires a 2-component mixture, got {mix.size}")
    return _composition_sum(mix, q, method, ctrl, None)


def _compositions(n: int, parts: int):
    """Yield all tuples of `parts` non-negative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _composition_sum(
    mix: MixtureExpSpec, q: RenewalQuery, method: str, ctrl: SeriesControl | None,
    cache: dict | None,
) -> float:
    """Sum over the compositions ks of n of the multinomial weight times
    sum_s w_s max(F(ks) - F(ks + e_s), 0), F the convolution CDF at t by
    `method`.  With a dict as `cache` each distinct F is evaluated once;
    with None every one afresh, 2S per composition.  One component is
    its Poisson pmf."""
    if mix.size == 1:
        return _poisson_pmf(q.t / mix.scales[0], q.n)
    t, n = q.t, q.n
    log_w = [math.log(w) for w in mix.weights]
    total = 0.0
    for ks in _compositions(n, mix.size):
        base_comps = list(zip(ks, mix.scales))
        bracket = 0.0
        for s_idx, (w, b) in enumerate(zip(mix.weights, mix.scales)):
            f_base = _conv_cdf(base_comps, t, method, ctrl, cache)
            bumped = list(base_comps)
            bumped[s_idx] = (ks[s_idx] + 1, b)
            bracket += w * max(f_base - _conv_cdf(bumped, t, method, ctrl, cache), 0.0)
        log_multi = math.lgamma(n + 1.0) - sum(
            math.lgamma(k + 1.0) for k in ks
        ) + sum(k * lw for k, lw in zip(ks, log_w))
        total += bracket * math.exp(log_multi)
    return min(total, 1.0)


def pmf_general(
    mix: MixtureExpSpec,
    q: RenewalQuery,
    method: str = "moschopoulos",
    ctrl: SeriesControl | None = None,
    budget: int = COMPOSITION_BUDGET,
) -> float:
    """Pr(N(t) = n) for an S-component mixture via composition enumeration.

    Sums over all compositions (k_1, ..., k_S) of n; each composition
    needs S + 1 distinct convolution CDFs (the base one plus one per
    incremented component), shared through a per-query memo table.
    Enumerations larger than `budget` compositions are rejected.

    Each bracket is a CDF difference F_base - F_hi, so where the pmf is
    far below the CDFs it cancels: at n = 0 with Pr(N(t) = 0) = 1.0e-9
    (weights 0.2/0.3/0.5, scales 0.5/1/2, t = 40) the result is 2.1e-8
    relative off the mixture survival.  `pmf_vector` has no differences.
    """
    mix = validate_mixture(mix)
    s = mix.size
    n_comp = comb(q.n + s - 1, s - 1)
    if n_comp > budget:
        raise BudgetError(
            f"composition count {n_comp} exceeds budget {budget} "
            f"(n={q.n}, S={s})"
        )
    return _composition_sum(mix, q, method, ctrl, {})


def _poisson_cut(mean: float, log_eps: float, limit: int) -> int:
    """The smallest M >= mean whose bound on log P(Poisson(mean) > M) is at
    most log_eps, or limit + 1 if that M is over limit.

    Past the mode consecutive masses fall by at most mean / (M + 2), so
    P(X > M) <= Pois(M + 1; mean) / (1 - mean / (M + 2)).  The search
    doubles its step from the mean, then bisects.
    """

    def log_tail(m: int) -> float:
        return (m + 1) * math.log(mean) - mean - math.lgamma(m + 2.0) - math.log1p(
            -mean / (m + 2.0)
        )

    lo, hi = math.ceil(mean) - 1, math.ceil(mean)
    step = max(1, math.ceil(math.sqrt(mean)))
    while hi <= limit and log_tail(hi) > log_eps:
        lo, hi, step = hi, hi + step, 2 * step
    hi = min(hi, limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_tail(mid) <= log_eps else (mid, hi)
    return hi


def _log_pmf_floor(alpha: np.ndarray, rates: np.ndarray, t: float, n_max: int) -> float:
    """log of a lower bound on Pr(N(t) = n) over 0 <= n <= n_max.

    n = 0 is exact: sum_i alpha_i e^(-r_i t).  For n >= 1, Pr(N(t) = n) is
    at least alpha_i^(n+1) Pois(n; r_i t), the chance that the first n + 1
    holding times all come from phase i and n of them end by t.  That is
    log-concave in n, so its minimum over 1..n_max is at an end; the bound
    is the largest of these minima over i.
    """
    log_alpha, rt = np.log(alpha), rates * t
    floor = float(np.logaddexp.reduce(log_alpha - rt))
    if n_max >= 1:
        ends = np.array([1.0, float(n_max)])[:, None]
        log_factorials = np.array([[0.0], [math.lgamma(n_max + 1.0)]])  # log 1!, log n_max!
        log_pois = ends * np.log(rt) - rt - log_factorials
        floor = min(floor, float(np.max(np.min((ends + 1.0) * log_alpha + log_pois, axis=0))))
    return floor


def pmf_vector(
    mix: MixtureExpSpec,
    t: float,
    n_max: int,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> np.ndarray:
    """Pr(N(t) = n) for n = 0..n_max at once, by uniformization.

    Mixture-of-exponential holding times are phase-type: phase i, entered
    with probability alpha_i (the weights), ends at rate r_i = 1/b_i.  At
    the uniform rate L = max r_i a step keeps phase i with probability
    1 - r_i/L and otherwise ends the holding time and draws the next phase
    from alpha.  With M steps by time t distributed Poisson(L t),

        Pr(N(t) = n) = sum_m Pois(m; L t) [alpha (P0 + z P1)^m 1]_{z^n},

    P0 = I - diag(r)/L diagonal and P1 = r alpha / L of rank one.  The
    walk goes in blocks of B steps, B = 16 or, for a walk of M < 86 steps,
    about sqrt(3 M).  With ops[b][j] the coefficient of z^j in
    (P0 + z P1)^b, set up once for b <= B (it is 0 for j > b), the state
    rows X after step m0 give X_(m0+b)[n] = sum_j X_m0[n - j] ops[b][j].
    So a block adds window @ sum_b Pois(m0 + b) ops[b] to the result and
    moves the state on by window @ ops[B], where row n of the window holds
    the state rows n - B .. n side by side.  That is five numpy calls a
    block (a small matmul, a copy, two matmuls and an add) where one step
    took six, and one matmul per b to set up.  The count is at most the
    step, so rows past m0 + B are left out.

    Every value is a sum of products of non-negative numbers: nothing
    cancels.  Its error grows with the number of steps: the rounding of
    1 - r_i/L and of ops[B], repeated block after block, bounds it by
    about M units of rounding (1.7e-13 relative at M = 5,339 against the
    walk in extended precision).  The Poisson cut M is sized before the
    first step so that the Poisson mass past it is at most ctrl.rel_tol
    times a lower bound on every value returned (a bound below the
    smallest normal double is raised to it); an M over ctrl.max_terms
    raises BudgetError before the state is built.
    """
    mix = validate_mixture(mix)
    RenewalQuery(t, n_max)  # the query's checks on t and n_max
    if n_max > ctrl.max_terms:
        raise BudgetError(f"n_max={n_max} is over the max_terms budget {ctrl.max_terms}")
    alpha = np.array(mix.weights)
    rates = 1.0 / np.array(mix.scales)
    mean = float(rates.max()) * t
    steps = ctrl.max_terms + 1
    if mean <= ctrl.max_terms:
        log_floor = max(_log_pmf_floor(alpha, rates, t, n_max), math.log(np.finfo(float).tiny))
        steps = _poisson_cut(mean, math.log(ctrl.rel_tol) + log_floor, ctrl.max_terms)
    if steps > ctrl.max_terms:
        raise BudgetError(
            f"uniformization at rate x time {mean:.6g} needs more than "
            f"{ctrl.max_terms} steps, the max_terms budget"
        )
    poisson = methods.poisson_masses(mean, steps + 1)
    s = alpha.shape[0]
    block = _block_steps(steps)
    ops = _step_powers(alpha, rates / rates.max(), block)
    advance = ops[block].reshape(-1, s)
    ops = ops.reshape(block + 1, -1)
    gain = np.empty(ops.shape[1])  # sum_b pois(m0 + b) ops[b], flattened
    padded = np.zeros((block + n_max + 1, s))  # state row n at block + n
    padded[block] = alpha
    # windows[n] = state rows n - block .. n, flattened; in bounds by its shape.
    windows = as_strided(padded, (n_max + 1, (block + 1) * s), padded.strides, writeable=False)
    window = np.empty(windows.shape)  # their copy, which matmul reads fastest
    acc = np.zeros((n_max + 1, s))
    for m0 in range(0, steps + 1, block):
        rows = min(n_max + 1, m0 + block + 1)  # the count is at most the step
        masses = poisson[m0:m0 + block]
        np.matmul(masses, ops[:masses.shape[0]], out=gain)
        np.copyto(window[:rows], windows[:rows])
        acc[:rows] += window[:rows] @ gain.reshape(-1, s)
        np.matmul(window[:rows], advance, out=padded[block:block + rows])
    return np.minimum(acc.sum(axis=1), 1.0)


def _block_steps(steps: int) -> int:
    """Steps per block of a walk of `steps` steps: a step of set-up costs
    about a third of a block, so a short walk takes about sqrt(3 steps)."""
    return max(1, min(_STEP_BLOCK, math.isqrt(3 * steps)))


def _step_powers(alpha: np.ndarray, jump: np.ndarray, block: int) -> np.ndarray:
    """ops[b, k] = the coefficient of z^(block - k) in (P0 + z P1)^b for
    b, k <= block, P0 = diag(1 - jump) and P1 = jump alpha^T.

    A power is the one before it times P0 + z P1 from the left, so its
    coefficient of z^j is P0 ops_(b-1)[j] + P1 ops_(b-1)[j - 1]: the S x 2S
    matrix [P0 | P1] times two adjacent coefficients stacked, one matmul
    over every j of a power.  Entries are sums of products of non-negative
    numbers.
    """
    s = alpha.shape[0]
    step = np.concatenate((np.diag(1.0 - jump), np.multiply.outer(jump, alpha)), axis=1)
    ops = np.zeros((block + 1, block + 2, s, s))  # k = block + 1 holds z^-1 = 0
    ops[0, block] = np.eye(s)
    # pairs[b, k] = ops[b, k] over ops[b, k + 1], a 2S x S matrix.
    pairs = as_strided(ops, (block + 1, block + 1, 2 * s, s), ops.strides, writeable=False)
    for b in range(block):
        np.matmul(step, pairs[b, block - b - 1:], out=ops[b + 1, block - b - 1:block + 1])
    return ops[:, :block + 1]


def pmf(
    mix: MixtureExpSpec,
    q: RenewalQuery,
    method: str = "proposition",
    ctrl: SeriesControl | None = None,
) -> float:
    """Pr(N(t) = n) by a named route.

    "proposition" is pmf_s2 for S <= 2, else row n of pmf_vector (by
    uniformization); "raw-<m>" is pmf_raw_s2 for S <= 2, else pmf_general;
    "<m>" is pmf_general.  <m> is one of ``methods.METHODS``.
    """
    mix = validate_mixture(mix)
    if method == "proposition":
        if mix.size <= 2:
            return pmf_s2(mix, q, ctrl or DEFAULT_CONTROL)
        return float(pmf_vector(mix, q.t, q.n, ctrl or DEFAULT_CONTROL)[q.n])
    cdf_method = _cdf_method(method)
    if method.startswith("raw-") and mix.size <= 2:
        return pmf_raw_s2(mix, q, cdf_method, ctrl)
    return pmf_general(mix, q, cdf_method, ctrl)


def _cdf_method(method: str) -> str:
    """The CDF method of a route other than "proposition"; DomainError if
    `method` names none."""
    cdf_method = method.removeprefix("raw-")
    if cdf_method not in methods.METHODS:
        raise DomainError(f"unknown renewal method {method!r}; use one of {RENEWAL_METHODS}")
    return cdf_method


def _pmf_values(
    mix: MixtureExpSpec, t: float, method: str, ctrl: SeriesControl | None, n_cap: int
) -> Iterator[float]:
    """Pr(N(t) = n) for n = 0, 1, ..., n_cap in turn, by the route `method`.

    A one-component mixture reads them, on every route, off its Poisson
    masses (`methods.poisson_masses`, whose masses do not depend on the
    vector's length), and the S >= 3 proposition route off pmf_vector.
    Both vectors are built with an n_max that doubles from twice the mean
    count, so a caller that stops early pays for about twice the rows it
    reads.
    """
    if mix.size == 1:
        if method != "proposition":
            _cdf_method(method)
        lam = t / mix.scales[0]
        rows = lambda n_max: methods.poisson_masses(lam, n_max + 1)  # noqa: E731
    elif mix.size > 2 and method == "proposition":
        rows = lambda n_max: pmf_vector(mix, t, n_max, ctrl or DEFAULT_CONTROL)  # noqa: E731
    else:
        for n in range(n_cap + 1):
            yield pmf(mix, RenewalQuery(t, n), method, ctrl)
        return
    RenewalQuery(t, 0)  # the query's checks on t, before t sizes n_max
    start, n_max = 0, min(n_cap, 2 * int(t / _mean_holding(mix)) + 16)
    while start <= n_cap:
        yield from rows(n_max)[start:].tolist()
        start, n_max = n_max + 1, min(2 * n_max, n_cap)


def _mean_holding(mix: MixtureExpSpec) -> float:
    return sum(w * b for w, b in zip(mix.weights, mix.scales))


def pmf_normalization(
    mix: MixtureExpSpec,
    t: float,
    tail_tol: float = 1e-10,
    method: str = "proposition",
    ctrl: SeriesControl | None = None,
    n_cap: int = 10_000,
) -> tuple[float, int]:
    """Sum Pr(N(t) = n) over n until the running tail estimate drops.

    Returns (accumulated probability, largest n evaluated).  Stops once
    the pmf has passed its mode and fallen below tail_tol.  `method` is a
    route name of ``pmf``.
    """
    mix = validate_mixture(mix)
    mean_count = t / _mean_holding(mix)
    total = 0.0
    peak = 0.0
    for n, p_n in enumerate(_pmf_values(mix, t, method, ctrl, n_cap)):
        total += p_n
        peak = max(peak, p_n)
        if p_n < tail_tol and peak > 0.0 and p_n < peak and n > mean_count:
            return total, n
    return total, n_cap
