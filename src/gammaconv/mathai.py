"""Exact gamma-convolution density/CDF via confluent hypergeometric series.

For n = 2 the density uses the closed Kummer-function form.  For n >= 3
it is an (n-1)-fold multiple series summed by shells of constant total
degree r.  x factors out of every shell, as x^r, so the shells'
x-free log-sums (`ShellTable`) are built once, for one point or many,
and each point then sums base_r + r log x.  The one CDF, `cdf_n`, serves
every n: it integrates the same series term by term, which turns the
shell weights into the masses of a sum of negative binomials (at n = 2,
one negative binomial) with total mass exactly one, an incomplete-gamma
series with a rigorous truncation bound: the nbsum route's CDF
(`methods.nbsum_cdf`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError, DomainError
from .methods import WeightLaw, check_point, finite_cumulants, log_gamma_pdf, nbsum_cdf
from .model import ConvolutionSpec, EvalResult, canonicalize
from .specfun import DEFAULT_CONTROL, SeriesControl, kummer_1f1_terms

__all__ = ["density2", "density_n", "cdf_n", "ShellTable", "CONTROL_N"]

#: Default truncation policy for the n >= 3 nested series (slightly looser
#: than the univariate default, reflecting the larger term count).
CONTROL_N = SeriesControl(rel_tol=1e-13, max_terms=10_000)

_LOG_TINY = math.log(4.9e-324)


def density2(
    spec: ConvolutionSpec, x: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> EvalResult:
    """Density of a two-component gamma convolution, closed 1F1 form.

    f(x) = (b1/b2)^a2 g(x; a1+a2, b1) 1F1(a2; a1+a2; (1/b1 - 1/b2) x)
    with b1 the smaller scale; fully assembled in log space.  A spec whose
    components merged to a single gamma is evaluated directly.

    tail_bound is None: the 1F1 series stops once its terms past the peak
    fall below rel_tol of the running sum, a relative stop rule that
    bounds nothing.  The mixture routes' bound, left-out weight mass times
    the largest kernel, has no counterpart here, since the 1F1 terms are
    not the masses of a law.
    """
    spec, done = check_point(spec, x, "density")
    if done is not None:
        return done
    if len(spec) > 2:
        raise DomainError(f"density2 requires n <= 2 components, got {len(spec)}")
    c1, c2 = spec.components
    gamma = c1.shape + c2.shape
    z = (1.0 / c1.scale - 1.0 / c2.scale) * x
    log_f1, terms = kummer_1f1_terms(c2.shape, gamma, z, ctrl)
    log_f = (
        c2.shape * (math.log(c1.scale) - math.log(c2.scale))
        + log_gamma_pdf(x, gamma, c1.scale)
        + log_f1
    )
    return EvalResult(0.0 if log_f < _LOG_TINY else math.exp(log_f), terms, None)


def _log_sum(log_w: np.ndarray) -> float:
    """log sum exp(log_w), shifted by the largest entry."""
    m = float(log_w.max())
    return m + math.log(float(np.sum(np.exp(log_w - m))))


def _series_cutoff(z: float, ctrl: SeriesControl) -> int:
    """The nominal per-dimension length at total argument z: about
    z + 12 sqrt(z) + 60 terms, at most ctrl.max_terms, plus one."""
    return int(min(ctrl.max_terms, z + 12.0 * math.sqrt(z) + 60.0)) + 1


def _log_convolve(
    log_a: np.ndarray, log_b: np.ndarray, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Entries start..stop-1 (default: all) of the convolution of two
    non-negative sequences given in log space.  Entry r reads only
    log_a[:r+1] and log_b[:r+1], so it does not depend on how much longer
    either sequence is."""
    if stop is None:
        stop = log_a.shape[0] + log_b.shape[0] - 1
    out = np.empty(stop - start)
    for r in range(start, stop):
        lo = max(0, r - log_b.shape[0] + 1)
        hi = min(r, log_a.shape[0] - 1)
        out[r - start] = _log_sum(log_a[lo : hi + 1] + log_b[r - hi : r - lo + 1][::-1])
    return out


class ShellTable:
    """The x-free part of the multiple series of one canonical spec, n >= 2.

    With c_j = 1/b1 - 1/b_j, every term of shell r carries
    prod_j z_j^k_j = prod_j c_j^k_j x^r, so the shell's log-sum is
    S_r + r log x, where S_r, the log-convolution of the per-dimension
    sequences log[(a_j)_k c_j^k / k!], does not depend on x.  `base`
    holds S_r + lgamma(gamma) - lgamma(gamma + r) for the shells built so
    far.  `density_n` reads every point from a table, its own or one
    shared by a request's points, and grows it in place as the points
    need, in blocks of a quarter of its size plus 16, up to
    ctrl.max_terms shells: no shell is computed twice, and a longer table
    repeats a shorter one's entries bit for bit, so a point's value does
    not depend on which table it read.  (`ctrl` is unused; it keeps the
    signature of the other routes' first laws.)

    Where the weight law's cumulants are infinite (scale ratios past about
    1e108) set-up raises ConvergenceError, as the weight-law routes do:
    a point on the scale of the largest component then needs about
    x/b1 > 1e108 shells, past any cap.
    """

    def __init__(self, spec: ConvolutionSpec, ctrl: SeriesControl | None = None):
        finite_cumulants(spec)
        self.spec = spec
        self.c = 1.0 / spec.scales[0] - 1.0 / spec.scales[1:]
        # _levels[j] is the log-convolution of sequences 0..j; the last
        # one is S.
        self._seqs = [np.empty(0) for _ in self.c]
        self._levels = list(self._seqs)
        self.base = np.empty(0)
        self.r = np.empty(0)

    def grow(self, size: int) -> None:
        """Append shells until the table holds `size`."""
        old = self.base.shape[0]
        k = np.arange(old, size, dtype=float)
        self._seqs = [
            np.concatenate((
                seq,
                sp.gammaln(a + k) - math.lgamma(a) + k * math.log(c) - sp.gammaln(k + 1.0),
            ))
            for seq, a, c in zip(self._seqs, self.spec.shapes[1:], self.c)
        ]
        levels = [self._seqs[0]]
        for level, seq in zip(self._levels[1:], self._seqs[1:]):
            levels.append(np.concatenate((level, _log_convolve(levels[-1], seq, old, size))))
        self._levels = levels
        gamma = self.spec.total_shape
        self.base = np.concatenate(
            (self.base, levels[-1][old:] + math.lgamma(gamma) - sp.gammaln(gamma + k))
        )
        self.r = np.arange(size, dtype=float)

    def log_series(self, x: float, ctrl: SeriesControl) -> tuple[float, int]:
        """log of the series at x > 0, cut by the stop rule, and its
        terms_used (`_terms_used`).

        The log shells are base + r log x.  The series stops at the first
        of two consecutive shells that are past the running peak and
        below the running log-sum + log rel_tol; the rule reads
        accumulate ops.  The sum is taken over the shells up to the stop
        alone, so the result depends only on them, whatever the table's
        length.
        """
        log_x = math.log(x)
        log_tol = math.log(ctrl.rel_tol)
        cap = ctrl.max_terms
        while True:
            log_shell = self.base[:cap] + self.r[:cap] * log_x
            below = log_shell < np.logaddexp.accumulate(log_shell) + log_tol
            below[1:] &= log_shell[1:] < np.maximum.accumulate(log_shell)[:-1]
            hits = np.flatnonzero(below[1:] & below[:-1])
            if hits.size:
                stop = int(hits[0]) + 1
                break
            size = self.base.shape[0]
            if size >= cap:
                raise ConvergenceError(
                    f"multiple series not converged after {cap} shells",
                    terms_used=self._terms_used(x, ctrl, cap),
                )
            # Each shell costs about the same, so a short step keeps a
            # one-point request within a quarter (plus 16) of the shells
            # it needs.
            self.grow(min(int(size * 1.25) + 16, cap))
        return _log_sum(log_shell[: stop + 1]), self._terms_used(x, ctrl, stop + 1)

    def _terms_used(self, x: float, ctrl: SeriesControl, shells: int) -> int:
        """The reported term count of the first `shells` shells at x.

        With kj = `_series_cutoff` of the total argument sum(c) x, shell r
        counts the index pairs (i, j) with i + j = r, 0 <= j < kj and
        0 <= i < (n-2)(kj-1)+1: the terms of the last sequence and of the
        convolution of the others, each sequence cut at kj terms."""
        kj = _series_cutoff(float(np.sum(self.c * x)), ctrl)
        head = (self.c.shape[0] - 1) * (kj - 1) + 1
        r = np.arange(shells)
        return int(np.sum(np.minimum(r, head - 1) - np.maximum(0, r - kj + 1) + 1))


def _log_density(
    spec: ConvolutionSpec, x: float, log_phi: float, terms_used: int
) -> EvalResult:
    """The density from the log of the multiple series at x."""
    log_f = (
        -float(np.sum(spec.shapes * np.log(spec.scales)))
        - math.lgamma(spec.total_shape)
        + (spec.total_shape - 1.0) * math.log(x)
        - x / spec.scales[0]
        + log_phi
    )
    return EvalResult(0.0 if log_f < _LOG_TINY else math.exp(log_f), terms_used, None)


def density_n(
    spec: ConvolutionSpec,
    x: float,
    ctrl: SeriesControl | None = None,
    weights: ShellTable | None = None,
) -> EvalResult:
    """Density via the multiple-series representation, any n >= 1.

    The (n-1)-dimensional series is summed by shells of constant total
    degree r.  After canonicalization every z_j = (1/b1 - 1/b_j) x is
    positive, so all terms are non-negative and the shell sums decay once
    r exceeds roughly max_j z_j.  Terminates when two consecutive shells
    contribute less than rel_tol relative to the accumulated sum.

    x factors out of every shell, so the point reads them from a
    `ShellTable`, grown as it needs.  Without `weights` it builds one of
    its own; pass the spec's table as `weights` to share it across calls
    (`methods.evaluate` does, once per request, still point by point).
    The result is the same bit for bit either way.

    tail_bound is None: the stop rule (two consecutive shells below
    rel_tol of the running sum, past the shell peak) is relative and
    bounds nothing, and the shells are not the masses of a law, so the
    mixture routes' bound (left-out mass times the largest kernel) does
    not apply.
    """
    spec, done = check_point(spec, x, "density")
    if done is not None:
        return done
    if ctrl is None:
        ctrl = DEFAULT_CONTROL if len(spec) <= 2 else CONTROL_N
    table = weights if weights is not None else ShellTable(spec)
    return _log_density(spec, x, *table.log_series(x, ctrl))


def cdf_n(
    spec: ConvolutionSpec,
    y: float,
    ctrl: SeriesControl | None = None,
    weights: WeightLaw | None = None,
) -> EvalResult:
    """CDF via term-by-term integration of the multiple series, any n >= 1.

    F(y) = sum_r W_r G(y/b1; gamma + r) where W_r, the shell weights, are
    convolutions of negative-binomial masses and therefore sum to one:
    the law `methods.nb_sum_law` builds.  This is `methods.nbsum_cdf`,
    at CONTROL_N for n >= 3 by default.  The reported tail bound is
    (1 - sum W) G(y/b1; gamma + R + 1); terms_used counts the shell
    weights W_0..W_R.  `methods.mixture_rows` sums the series, from
    y/b1 = 64 up as kernel sums with one incomplete-gamma value; the terms
    and the bound are the same either way.  Pass a prebuilt law as
    `weights` to share it across calls.  Below y/b1 = 64 the first stage,
    built or taken as a prefix of `weights`, ends where the point's kernel
    dies (`methods.mixture_point`) and is extended only if the tail bound
    asks for it.
    """
    if ctrl is None:
        ctrl = DEFAULT_CONTROL if len(canonicalize(spec)) <= 2 else CONTROL_N
    return nbsum_cdf(spec, y, ctrl, weights)
