"""Special functions evaluated in log space.

Everything here is a pure function.  Kummer values can overflow a double
(large arguments), so they are returned as plain log floats; every term
the series sums is non-negative (after Kummer's transformation for a
negative argument, DLMF 13.2(vii)), so no sign is carried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "kummer_1f1",
    "kummer_1f1_terms",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    rel_tol: relative tolerance for dropping the series tail, in (0, 1).
    max_terms: hard cap on the number of terms per series dimension.
    """

    rel_tol: float = 1e-15
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_CONTROL = SeriesControl()


def stirling_series(z):
    """The Stirling error s(z) = lgamma(z + 1) - (z log z - z + log(2 pi z)/2),
    equally lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), from its
    Stirling series at z > 15, where the first term left out is below
    1e-18.  Takes a float or an array: plain float arithmetic, so a float
    pays no numpy call."""
    u = 1.0 / z
    u2 = u * u
    return u * (1.0 / 12.0 - u2 * (1.0 / 360.0 - u2 * (1.0 / 1260.0 - u2 * (
        1.0 / 1680.0 - u2 * (1.0 / 1188.0 - u2 * (691.0 / 360360.0 - u2 / 156.0))))))


def _kummer_log_term_direct(a: float, b: float, z: float, k: float) -> float:
    """log of the term (a)_k z^k / ((b)_k k!) of the Kummer series, from
    lgamma values near k log k; their differences lose about k log k
    times 1e-16."""
    return (
        math.lgamma(a + k)
        - math.lgamma(a)
        + k * math.log(z)
        - math.lgamma(b + k)
        + math.lgamma(b)
        - math.lgamma(k + 1.0)
    )


def _kummer_log_term(a: float, b: float, z: float, k: int) -> float:
    """`_kummer_log_term_direct` to about 1e-15 absolute for k >= 20
    (so a+k, b+k > 20 too), where the Stirling series gives each lgamma
    difference from small, well-conditioned parts."""
    if k < 20:
        return _kummer_log_term_direct(a, b, z, k)
    x, y = a + k, b + k
    # lgamma(x) - lgamma(y) = (x - 1/2) log(x/y) + (x - y)(log y - 1) + ...
    log_ratio = (
        (x - 0.5) * math.log1p((a - b) / y)
        + (a - b) * (math.log(y) - 1.0)
        + stirling_series(x)
        - stirling_series(y)
    )
    # k log z - lgamma(k + 1) = k (1 - log(k/z)) - log(2 pi k)/2 - ...
    log_power = (
        k * (1.0 - math.log(k / z)) - 0.5 * math.log(2.0 * math.pi * k) - stirling_series(k)
    )
    return log_ratio - math.lgamma(a) + math.lgamma(b) + log_power


def _kummer_head(
    a: float, b: float, z: float, c: float, log_tol: float
) -> tuple[int, float, float] | None:
    """Where the summation of a z > 0 Kummer series may start, the width
    of its term peak and the log of the term there; None when no head can
    be skipped.

    The term ratio (a+k) z / ((b+k)(k+1)) falls through 1 at the positive
    root k* of (a+k) z = (b+k)(k+1), where the terms peak; near it log t_k
    is a parabola of width 1/sqrt(d/dk log ratio).  The start lies c
    widths below k*.  The terms before it rise to the peak, after at most
    one dip, so each is at most max(t_0, t_start): the start is taken only
    if k_start times that is under rel_tol times the peak term.
    """
    p = b + 1.0 - z
    disc = p * p - 4.0 * (b - a * z)
    if disc < 0.0:
        return None
    peak = 0.5 * (math.sqrt(disc) - p)
    if not peak > 0.0:
        return None
    curvature = 1.0 / (peak + 1.0) + 1.0 / (b + peak) - 1.0 / (a + peak)
    if not curvature > 0.0:
        return None
    width = 1.0 / math.sqrt(curvature)
    k_start = int(peak - c * width)
    if k_start <= 0:
        return None
    log_t = _kummer_log_term(a, b, z, k_start)
    log_peak = _kummer_log_term_direct(a, b, z, int(peak))
    if math.log(k_start) + max(0.0, log_t) > log_peak + log_tol:
        return None
    return k_start, width, log_t


def _kummer_series_pos(
    a: float, b: float, z: float, ctrl: SeriesControl
) -> tuple[float, int]:
    """log sum_k (a)_k z^k / ((b)_k k!) for z > 0, a > 0, and the term count.

    All terms are positive.  Terms are generated in blocks from the ratio
    recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)) and accumulated with a
    running log-scale offset.  Termination requires two consecutive terms
    below rel_tol relative to the accumulated sum.
    """
    log_tol = math.log(ctrl.rel_tol)
    sqrt_z = math.sqrt(z)
    c = math.sqrt(2.0 * (-log_tol + math.log1p(z) + 5.0))
    head = _kummer_head(a, b, z, c, log_tol) if z > 256.0 else None
    if head is not None:
        # Start the recurrence c widths below the term peak; the skipped
        # head is under rel_tol of the peak term (see _kummer_head).  This
        # makes the cost O(width) instead of O(z).
        k_start, width, log_t = head
        log_sum = log_t
        k0 = k_start
        terms = k_start + 1
        first = max(int(min(ctrl.max_terms, 2.2 * c * width + 64.0)), 4)
    else:
        log_sum = 0.0  # log of partial sum; starts at t_0 = 1
        log_t = 0.0  # log of the most recent term
        k0 = 0
        terms = 1
        first = max(int(min(ctrl.max_terms, z + 12.0 * sqrt_z + 64.0)), 4)
    block = first
    while True:
        k = np.arange(k0, k0 + block, dtype=float)
        # Single fused log of the (positive) term ratio.
        log_ratio = np.log((a + k) * z / ((b + k) * (k + 1.0)))
        log_terms = log_t + np.cumsum(log_ratio)
        m = max(float(log_terms.max()), log_sum)
        log_sum = m + math.log(
            math.exp(log_sum - m) + float(np.exp(log_terms - m).sum())
        )
        log_t = float(log_terms[-1])
        terms += block
        threshold = log_sum + log_tol
        if log_terms[-1] < threshold and log_terms[-2] < threshold:
            # Trim the reported term count to the first two terms under
            # tolerance after the last one above it (terms before the
            # peak can be as small).
            above = np.flatnonzero(log_terms >= threshold)
            last = int(above[-1]) if above.size else -1
            terms = k0 + last + 4  # +1 for t_0, +1 past `last`, +2 for the pair
            return log_sum, terms
        if terms >= ctrl.max_terms:
            raise ConvergenceError(
                f"1F1({a}, {b}, {z}) did not converge within "
                f"{ctrl.max_terms} terms (last relative term "
                f"{math.exp(log_t - log_sum):.3e})",
                terms_used=terms,
                last_term=math.exp(log_t - log_sum),
            )
        k0 += block
        block = 64


def kummer_1f1_terms(
    a: float, b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> tuple[float, int]:
    """log 1F1(a; b; z), plus the series-term count.

    Requires a >= 0 and b > 0.  For z < 0 the reflection
    1F1(a; b; z) = e^z 1F1(b-a; b; -z) is applied so the series is summed
    with non-negative terms only; this additionally needs b >= a, which
    every caller in this package satisfies.  The value is then positive,
    so its log is all there is to return.
    """
    if not b > 0:
        raise DomainError(f"kummer_1f1 requires b > 0, got b={b}")
    if a < 0:
        raise DomainError(f"kummer_1f1 requires a >= 0, got a={a}")
    if z < 0:
        if b - a < 0:
            raise DomainError(
                f"negative-argument reflection needs b >= a, got a={a}, b={b}"
            )
        log_f1, terms = kummer_1f1_terms(b - a, b, -z, ctrl)
        return log_f1 + z, terms
    if a == 0 or z == 0:
        return 0.0, 1
    return _kummer_series_pos(a, b, z, ctrl)


def kummer_1f1(
    a: float, b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """log of Kummer's confluent hypergeometric function 1F1(a; b; z)."""
    log_f1, _ = kummer_1f1_terms(a, b, z, ctrl)
    return log_f1
