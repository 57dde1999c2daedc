"""Special functions evaluated in log space.

Everything here is a pure function.  Kummer values can overflow a double
(large arguments), so they are returned as log floats.  The 1F1 is summed
in one of three regimes, chosen from (a, b, z) (`kummer_1f1_terms`): a
short power series in plain floats, the large-z form of DLMF 13.7.2 with
a computed remainder bound, or the power series in log space.  Every
power-series term is non-negative (after Kummer's transformation for a
negative argument, DLMF 13.2(vii)), so no sign is carried there; the
large-z terms (b-a)_s (1-a)_s / (s! z^s) change sign wherever s < a - 1,
so that form is taken only where its cancellation stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "Kummer1F1",
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


def _log_gamma_ratio(x: float, y: float, d: float) -> float:
    """lgamma(x) - lgamma(y) for x, y > 15 and d = x - y, as
    (x - 1/2) log(x/y) + d (log y - 1) + s(x) - s(y) (s the Stirling
    error): small, well-conditioned parts, where the lgamma values
    themselves are off by about an ulp of x log x."""
    return (
        (x - 0.5) * math.log1p(d / y)
        + d * (math.log(y) - 1.0)
        + stirling_series(x)
        - stirling_series(y)
    )


def _lgamma_diff(x: float, y: float) -> float:
    """lgamma(x) - lgamma(y), x > y > 0: `_log_gamma_ratio` from y = 15 on."""
    return _log_gamma_ratio(x, y, x - y) if y > 15.0 else math.lgamma(x) - math.lgamma(y)


def _kummer_log_term(a: float, b: float, z: float, k: int) -> float:
    """`_kummer_log_term_direct` to about 1e-15 absolute for k >= 20
    (so a+k, b+k > 20 too), where the Stirling series gives each lgamma
    difference from small, well-conditioned parts."""
    if k < 20:
        return _kummer_log_term_direct(a, b, z, k)
    log_ratio = _log_gamma_ratio(a + k, b + k, a - b)
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


class Kummer1F1(NamedTuple):
    """log 1F1(a; b; z) as `kummer_1f1_terms` sums it.

    terms is the number of series terms summed.  rel_bound bounds the
    relative truncation error of the value (the series' left-out terms,
    rounding aside); inf where no bound is known.  log_large_z is the log
    of the large-z sum A where that form was taken, so that
    log 1F1 = z + lgamma(b) - lgamma(a) + (a - b) log z + log_large_z
    (`_kummer_large_z`), else None: a caller can then fold e^z into its
    own factors, as `mathai.density2` does.
    """

    log: float
    terms: int
    rel_bound: float
    log_large_z: float | None = None


def _tail_ratio(a: float, b: float, z: float, k: int) -> float:
    """A bound on every term ratio (a+j) z / ((b+j)(j+1)), j >= k, of the
    z > 0 power series.  The ratio falls with j wherever
    (1-a)(b+j) <= (a+j)(j+1) (always for a >= 1), and once that holds at
    j = k it holds past it, so the ratio at k bounds the rest; elsewhere
    (a < 1) both z / (b+k), since (a+j) / (j+1) < 1, and
    z max(1, a/b) / (k+1) do.  Past a term t_k at which this is below 1,
    the terms left out sum to at most t_k rho / (1 - rho)."""
    if a < 1.0 and (1.0 - a) * (b + k) > (a + k) * (k + 1.0):
        return z * min(1.0 / (b + k), max(1.0, a / b) / (k + 1.0))
    return (a + k) * z / ((b + k) * (k + 1.0))


def _log_tail(a: float, b: float, z: float, k: int, log_t: float) -> float:
    """log of the bound t_k rho / (1 - rho) (`_tail_ratio`) on the terms
    past t_k = e^log_t; inf where rho is not below 1."""
    rho = _tail_ratio(a, b, z, k)
    return log_t + math.log(rho / (1.0 - rho)) if rho < 1.0 else math.inf


#: z max(1, a/b) up to which the power series is summed in plain floats:
#: every term and the sum stay below e^(z max(1, a/b)), and a scalar loop of
#: about 0.15 us a term beats the log-space blocks (16-20 us a call) up to
#: about 60.
_SHORT_SERIES_TO = 48.0


def _kummer_short(a: float, b: float, z: float, ctrl: SeriesControl) -> Kummer1F1:
    """The z > 0 power series summed term by term in plain floats, with
    the log-space blocks' stop rule: the first two consecutive terms below
    rel_tol of the running sum, once past the term peak (the next term
    ratio below 1 and falling, `_tail_ratio`)."""
    tol = ctrl.rel_tol
    t = total = 1.0
    k = 0
    while True:
        # Two terms a pass, the stop rule read at the second.
        t_odd = t * ((a + k) * z / ((b + k) * (k + 1.0)))
        t = t_odd * ((a + k + 1.0) * z / ((b + k + 1.0) * (k + 2.0)))
        k += 2
        total += t_odd + t
        if t < tol * total and t_odd < tol * total and _tail_ratio(a, b, z, k) < 1.0:
            break
        if k + 1 >= ctrl.max_terms:
            raise ConvergenceError(
                f"1F1({a}, {b}, {z}) did not converge within {ctrl.max_terms} terms "
                f"(last relative term {t / total:.3e})",
                terms_used=k + 1,
                last_term=t / total,
            )
    log_total = math.log(total)
    bound = math.exp(_log_tail(a, b, z, k, math.log(t)) - log_total) if t > 0.0 else 0.0
    return Kummer1F1(log_total, k + 1, bound)


#: The large-z form's split point 1 - delta on s/z (`_kummer_large_z`).
_LARGE_Z_SPLIT = 1.0 / 32.0
#: The most terms the large-z form sums before it gives way to the series.
_LARGE_Z_TERMS = 64
#: How far sum |t_s| may exceed the large-z sum: its rounding error is
#: about 1e-16 times this (3.8e-15 at 380, a = 20, b = 40, z = 127).
_LARGE_Z_CANCELLATION = 1024.0


def _kummer_large_z(
    a: float, b: float, z: float, ctrl: SeriesControl
) -> tuple[float, int, float] | None:
    """log A, its term count and its relative truncation bound, for
    1F1(a; b; z) = Gamma(b)/Gamma(a) e^z z^(a-b) A at z > 0, b > a > 0; or
    None where this form cannot reach rel_tol in few terms.

    With c = b - a, the integral representation (DLMF 13.4.1, t = 1 - s/z)
    makes A exactly (1/Gamma(c)) int_0^z e^-s s^(c-1) (1 - s/z)^(a-1) ds.
    Expanding (1 - s/z)^(a-1) and integrating over s > 0 gives the terms
    t_s = (c)_s (1-a)_s / (s! z^s) of DLMF 13.7.2; at integer a they stop
    at s = a - 1.  After S terms the error is at most
      - the Taylor remainder: |t_S| where S <= a - 1 (Lagrange form); past
        that the left-out coefficients share one sign and shrink, so the
        remainder is at most |(1-a)_S/S!| u^S / (1 - u) at u = s/z, which
        gives |t_S| / delta below u = 1 - delta, plus at most
        e^-(1-delta)z z^c / (Gamma(c)(1-delta)) (delta^a/a + C delta)
        above it (C = sum_(s<S) |(1-a)_s/s!|); nothing where a = S;
      - the integral past z, the algebraic z^-a part:
        sum_(s<S) |(1-a)_s/s!| z^-s Gamma(c+s, z)/Gamma(c)
        <= C e^-z z^(c-1) / (Gamma(c) (1 - r)), r = max(0, c+S-2)/z < 1,
        since Gamma(c+s, z) <= z^(c+s-1) e^-z / (1 - (c+s-1)/z) there.
    The form is taken where that bound is below rel_tol of A, the terms
    have not started to grow, and sum |t_s| is within
    `_LARGE_Z_CANCELLATION` of A.
    """
    c = b - a
    if not (a > 0.0 and c > 0.0 and z > c):
        return None
    log_front = (c - 1.0) * math.log(z) - math.lgamma(c)
    log_tol = math.log(ctrl.rel_tol)
    if log_front - z > log_tol:  # the algebraic part alone is too large
        return None
    edge = math.exp(log_front - z)
    delta = _LARGE_Z_SPLIT
    top = math.exp(min(log_front - (1.0 - delta) * z, 700.0)) * z / (1.0 - delta)
    top_a = top * delta**a / a
    tol = ctrl.rel_tol
    total = t = mag = coef = coefs = size = 1.0
    k = 0.0  # t_0..t_k summed; t_next is t_S, S = k + 1
    for _ in range(min(_LARGE_Z_TERMS, ctrl.max_terms)):
        step = k + 1.0 - a
        t_next = t * (c + k) * step / ((k + 1.0) * z)
        mag_next = abs(t_next)
        lagrange = k + 2.0 <= a
        if step == 0.0:
            taylor = 0.0
        elif lagrange:
            taylor = mag_next
        elif mag_next >= mag:
            return None
        else:
            taylor = mag_next / delta
        if taylor <= tol * total:
            # The parts past z, which grow with S, only once the Taylor
            # remainder is small enough.
            reach = max(0.0, c + k - 1.0) / z
            if reach >= 1.0:
                return None
            bound = taylor + coefs * edge / (1.0 - reach)
            if not (lagrange or step == 0.0):
                bound += top_a + top * coefs * delta
            if bound <= tol * total:
                break
        coef *= abs(step) / (k + 1.0)
        coefs += coef
        t, mag = t_next, mag_next
        total += t
        size += mag
        k += 1.0
    else:
        return None
    if size > _LARGE_Z_CANCELLATION * total:
        return None
    return math.log(total), int(k) + 1, bound / (total - bound)


def _kummer_series_pos(a: float, b: float, z: float, ctrl: SeriesControl) -> Kummer1F1:
    """log sum_k (a)_k z^k / ((b)_k k!) for z > 0, a > 0, in log space.

    All terms are positive.  Terms are generated in blocks from the ratio
    recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)) and accumulated with a
    running log-scale offset.  Termination requires two consecutive terms
    below rel_tol relative to the accumulated sum.  The bound adds the
    terms past the reported count (`_log_tail`) and, where a head was
    skipped, the head's bound (`_kummer_head`).
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
        log_head = math.log(k_start) + max(0.0, log_t)
        log_sum = log_t
        k0 = k_start
        terms = k_start + 1
        first = max(int(min(ctrl.max_terms, 2.2 * c * width + 64.0)), 4)
    else:
        log_head = -math.inf
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
            log_tail = _log_tail(a, b, z, terms - 1, float(log_terms[last + 2]))
            bound = math.exp(log_tail - log_sum) + math.exp(log_head - log_sum)
            return Kummer1F1(log_sum, terms, bound)
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
) -> Kummer1F1:
    """log 1F1(a; b; z), its term count, its relative truncation bound and,
    where taken, the large-z sum (`Kummer1F1`).

    Requires a >= 0 and b > 0.  For z < 0 the reflection
    1F1(a; b; z) = e^z 1F1(b-a; b; -z) is applied, so that the power
    series has non-negative terms only; this additionally needs b >= a,
    which every caller in this package satisfies.  The value is positive,
    so its log is all there is to return.  At z > 0 the regime is the
    first that applies of:
      - the large-z form (`_kummer_large_z`), where b > a > 0 and its
        computed remainder bound reaches rel_tol in few terms;
      - the short power series in plain floats (`_kummer_short`), where
        z max(1, a/b) <= `_SHORT_SERIES_TO`;
      - the power series in log-space blocks, skipping the head of terms
        far below the peak at z > 256 (`_kummer_series_pos`).
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
        inner = kummer_1f1_terms(b - a, b, -z, ctrl)
        if inner.log_large_z is None:
            return Kummer1F1(inner.log + z, inner.terms, inner.rel_bound)
        # e^z cancels the inner form's e^-z, leaving
        # Gamma(b)/Gamma(c) (-z)^-(b-c) A at c = b - a as rounded, the
        # inner series' own parameter.
        c = b - a
        log_f1 = _lgamma_diff(b, c) - (b - c) * math.log(-z) + inner.log_large_z
        return Kummer1F1(log_f1, inner.terms, inner.rel_bound)
    if a == 0 or z == 0:
        return Kummer1F1(0.0, 1, 0.0)
    large = _kummer_large_z(a, b, z, ctrl)
    if large is not None:
        log_sum, terms, bound = large
        log_f1 = z + _lgamma_diff(b, a) + (a - b) * math.log(z) + log_sum
        return Kummer1F1(log_f1, terms, bound, log_sum)
    if z * max(1.0, a / b) <= _SHORT_SERIES_TO:
        return _kummer_short(a, b, z, ctrl)
    return _kummer_series_pos(a, b, z, ctrl)


def kummer_1f1(
    a: float, b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """log of Kummer's confluent hypergeometric function 1F1(a; b; z)."""
    return kummer_1f1_terms(a, b, z, ctrl).log
