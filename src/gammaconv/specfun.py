"""Special functions evaluated in log space.

Everything here is a pure function.  Kummer values can overflow a double
(large arguments), so they are returned as log floats.  The 1F1 is summed
in one of two regimes, chosen from (a, b, z) (`kummer_1f1_terms`): the
large-z form of DLMF 13.7.2 with a computed remainder bound, or the power
series in plain floats, scaled down by a fixed power of two whenever its
sum passes it.  Every power-series term is non-negative (after Kummer's
transformation for a negative argument, DLMF 13.2(vii)), so no sign is
carried there; the large-z terms (b-a)_s (1-a)_s / (s! z^s) change sign
wherever s < a - 1, so that form is taken only where its cancellation
stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy import special as sp

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


#: The power of two past which the power series' running sum and last term
#: are scaled down by it (exactly), so that no term overflows.
_RESCALE = 2.0**960
_LOG_RESCALE = 960.0 * math.log(2.0)


def _kummer_series(a: float, b: float, z: float, ctrl: SeriesControl) -> Kummer1F1:
    """The z > 0 power series summed term by term in plain floats.  It
    stops at the first two consecutive terms below rel_tol of the running
    sum, once past the term peak (the next term ratio below 1 and falling,
    `_tail_ratio`).  Whenever the sum passes `_RESCALE`, the sum and the
    last term are divided by it and the count of divisions carried, so the
    series reaches any z that max_terms allows."""
    tol = ctrl.rel_tol
    t = total = 1.0
    k = scaled = 0
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
        if total > _RESCALE:
            total /= _RESCALE
            t /= _RESCALE
            scaled += 1
    log_total = math.log(total)
    bound = math.exp(_log_tail(a, b, z, k, math.log(t)) - log_total) if t > 0.0 else 0.0
    return Kummer1F1(log_total + scaled * _LOG_RESCALE, k + 1, bound)


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


def kummer_1f1_terms(
    a: float, b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> Kummer1F1:
    """log 1F1(a; b; z), its term count, its relative truncation bound and,
    where taken, the large-z sum (`Kummer1F1`).

    Requires a >= 0 and b > 0.  For z < 0 the reflection
    1F1(a; b; z) = e^z 1F1(b-a; b; -z) is applied, so that the power
    series has non-negative terms only; this additionally needs b >= a,
    which every caller in this package satisfies.  The value is positive,
    so its log is all there is to return.  At z > 0 it takes the large-z
    form (`_kummer_large_z`) where b > a > 0 and its computed remainder
    bound reaches rel_tol in few terms, and the power series
    (`_kummer_series`) everywhere else.
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
        # Gamma(b)/Gamma(b-a) (-z)^-a A.  The inner form took its parameter
        # at c = b - a as rounded; b - a = c + delta exactly (TwoSum), and
        # lgamma(c + delta) = lgamma(c) + psi(c) delta to first order.
        c = b - a
        b_part = c - b
        delta = (b - (c - b_part)) - (a + b_part)
        log_f1 = (_lgamma_diff(b, c) - float(sp.digamma(c)) * delta
                  - a * math.log(-z) + inner.log_large_z)
        return Kummer1F1(log_f1, inner.terms, inner.rel_bound)
    if a == 0 or z == 0:
        return Kummer1F1(0.0, 1, 0.0)
    large = _kummer_large_z(a, b, z, ctrl)
    if large is not None:
        log_sum, terms, bound = large
        log_f1 = z + _lgamma_diff(b, a) + (a - b) * math.log(z) + log_sum
        return Kummer1F1(log_f1, terms, bound, log_sum)
    return _kummer_series(a, b, z, ctrl)


def kummer_1f1(
    a: float, b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """log of Kummer's confluent hypergeometric function 1F1(a; b; z)."""
    return kummer_1f1_terms(a, b, z, ctrl).log
