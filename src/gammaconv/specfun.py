"""The special functions the series need, in numpy and math code alone.

Everything here is a pure function: log-gamma on arrays (`log_gamma`),
the Stirling error, the deviance x log(x/m) + m - x, psi (`digamma`),
the gamma kernel e^-u u^a / Gamma(a + 1) and the regularized incomplete
gamma functions P and Q (`incomplete_gamma`), and Kummer's 1F1.  log-gamma
and the Stirling error take one elementwise rule at every entry, so a value
is the same, bit for bit, in any array.  Kummer values can overflow a double
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

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "Kummer1F1",
    "kummer_1f1",
    "kummer_1f1_terms",
    "stirling_series",
    "stirling_error",
    "deviance",
    "log_gamma",
    "log_gamma_ratio",
    "log_factorials",
    "digamma",
    "gamma_kernel",
    "incomplete_gamma",
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
    pays no numpy call, and an array takes the same steps in place."""
    u = 1.0 / z
    u2 = u * u
    if isinstance(u, float):
        return u * (1.0 / 12.0 - u2 * (1.0 / 360.0 - u2 * (1.0 / 1260.0 - u2 * (
            1.0 / 1680.0 - u2 * (1.0 / 1188.0 - u2 * (691.0 / 360360.0 - u2 / 156.0))))))
    out = u2 / 156.0
    for c in (691.0 / 360360.0, 1.0 / 1188.0, 1.0 / 1680.0, 1.0 / 1260.0, 1.0 / 360.0):
        np.subtract(c, out, out=out)
        out *= u2
    np.subtract(1.0 / 12.0, out, out=out)
    out *= u
    return out


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: j = 0..15: the steps of `stirling_error`'s recurrence, up to z + 16 > 15.
_STEPS = np.arange(16.0)[:, None]

#: Entries `stirling_error` takes the steps of at once (16 x 4,096 floats).
_BLOCK = 4096


def stirling_error(z: np.ndarray) -> np.ndarray:
    """s(z) = lgamma(z + 1) - (z log z - z + log(2 pi z) / 2) at z > 0,
    elementwise; equally lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2).

    Past z = 15 the Stirling series (`stirling_series`); at z <= 15 the
    exact recurrence s(z) = s(z + 16) + sum_(j<16) t(z + j), t(y) = y
    log1p(1/y) - 1 + log1p(1/y)/2 (y log1p(1/y) < 1 rounds to half the ulp
    of (y + 1/2) log1p(1/y)), summed by halves with t(z) last: within about
    2.5e-15.  Every entry takes the same steps in any array.
    """
    return _stirling_error(z, np.nonzero(z <= 15.0)[0])


def _stirling_error(z: np.ndarray, small: np.ndarray) -> np.ndarray:
    """`stirling_error`, given the indices of its entries at most 15."""
    if not small.shape[0]:
        return stirling_series(z)
    shifted = z.copy()
    shifted[small] += 16.0
    out = stirling_series(shifted)
    for start in range(0, small.shape[0], _BLOCK):
        block = small[start : start + _BLOCK]
        zs = z[block]
        # Row j holds the step at y = z + j.
        y = _STEPS + zs
        log_ratio = np.log1p(np.reciprocal(y))
        y *= log_ratio
        y -= 1.0
        log_ratio *= 0.5
        y += log_ratio
        y[1:8] += y[9:]
        y[1:5] += y[5:9]
        y[1:3] += y[3:5]
        y[1] += y[2]
        out[block] = (y[1] + out[block]) + y[0]
    return out


#: lgamma(n) at n = 0..15: inf, then log (n - 1)!, each correctly rounded.
_LGAMMA_INTEGERS = np.array([math.inf] + [math.log(math.factorial(n)) for n in range(15)])


def log_gamma(z) -> np.ndarray:
    """lgamma elementwise at z >= 0: (z - 1/2) log z - z + log(2 pi)/2 +
    s(z), s the Stirling error (`stirling_error`), off by at most 6 ulps of
    max(1, |lgamma|); at the integers 0..15 log (z - 1)!, correctly rounded
    (inf at 0, 0 at 1 and 2).  Every entry is the same in any array."""
    z = np.asarray(z, dtype=float)
    small = np.nonzero(z <= 15.0)[0]
    # At z = 0 the steps read 0 inf; the integers' values replace it.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(z)
        out *= z - 0.5
        out -= z
        out += _HALF_LOG_2PI
        out += _stirling_error(z, small)
    whole = small[z[small] == np.floor(z[small])]
    out[whole] = _LGAMMA_INTEGERS[z[whole].astype(np.intp)]
    return out


def log_gamma_ratio(y: np.ndarray, d: float) -> np.ndarray:
    """lgamma(y + d) - lgamma(y) elementwise at y > 0 and y + d > 0, d
    exact: (y + d - 1/2) log1p(d/y) + d (log y - 1) + s(y + d) - s(y), s
    the Stirling error (`stirling_error`).  The parts are small and well
    conditioned, where the two lgamma values would each be off by about an
    ulp of y log y."""
    rest = stirling_error(np.concatenate((y + d, y)))
    n = y.shape[0]
    return (y + (d - 0.5)) * np.log1p(d / y) + d * (np.log(y) - 1.0) + (rest[:n] - rest[n:])


#: log k! at k = 0..170, the logs of one running product of k: the head
#: of every `log_factorials` table, read-only.
_LOG_FACTORIALS = np.concatenate(([0.0], np.log(np.multiply.accumulate(np.arange(1.0, 171.0)))))
_LOG_FACTORIALS.setflags(write=False)


def log_factorials(count: int) -> np.ndarray:
    """log k! at k = 0..count-1: the logs of running products of k, to
    170! in one run (a read-only prefix of `_LOG_FACTORIALS`), past it in
    blocks short enough not to overflow (64 factors below k = 65,000),
    each block carried by the sum of the logs of the blocks before it.  A
    product of n factors is off by at most n roundings, so its log by
    under n 2^-53; the carried sums add a few ulps of log k!, which
    differences over a shared prefix largely cancel."""
    if count <= 171:
        return _LOG_FACTORIALS[:count]
    width = max(1, min(64, int(700.0 / math.log(count + 1.0))))
    rows = -(-count // width)
    blocks = np.arange(1.0, rows * width + 1.0).reshape(rows, width)
    np.multiply.accumulate(blocks, axis=1, out=blocks)
    np.log(blocks, out=blocks)
    blocks[1:] += np.add.accumulate(blocks[:-1, -1])[:, None]
    return np.concatenate(([0.0], blocks.ravel()[: count - 1]))


def digamma(x: float) -> float:
    """psi(x) at x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then the asymptotic series (DLMF 5.11.2), whose first term
    left out is below 5e-17 there."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    u2 = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - u2 * (1.0 / 12.0 - u2 * (1.0 / 120.0 - u2 * (
        1.0 / 252.0 - u2 * (1.0 / 240.0 - u2 * (1.0 / 132.0 - u2 * (
            691.0 / 32760.0 - u2 / 12.0))))))


#: 1/3, 1/5, ..., 1/59: the coefficients of `deviance`'s series.
_DEVIANCE_SERIES = 1.0 / np.arange(3.0, 60.0, 2.0)


def deviance(x: np.ndarray | float, m: np.ndarray | float) -> np.ndarray:
    """x log(x / m) + m - x elementwise, to a few units of rounding of its value.

    Where x and m are within a factor 3 (|v| < 1/2, v = (x - m)/(x + m))
    it is (x - m) v + 2 x v^3 sum_j v^(2j) / (2j + 3), whose terms carry
    no cancellation; the series is cut past j = 28, where v^56 < 1e-16.
    `_deviance` is the same formula at one float.
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


def _deviance(x: float, m: float) -> float:
    """`deviance` at one pair of floats x, m > 0, in plain float arithmetic:
    its near series is summed until a term is below 2^-54 of the sum."""
    d = x - m
    v = d / (x + m)
    if abs(v) >= 0.5:
        ratio = x / m
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(x) - math.log(m)
        return x * log_ratio - d
    v2 = v * v
    power, total, j = v2, 1.0 / 3.0, 5.0
    while power > 2.0**-54 * j * total:
        total += power / j
        power *= v2
        j += 2.0
    return d * v + 2.0 * x * v * v2 * total


def gamma_kernel(a: float, u: float) -> float:
    """k_a(u) = e^-u u^a / Gamma(a + 1), the Poisson-like kernel, at a, u > 0.

    Up to a = 170, wherever e^-u and u^a stay normal, as written, to a few
    ulps; from a = 1 on Gamma(a + 1) is taken as a Gamma(a): a + 1 rounds
    off low bits of a, an error Gamma magnifies by psi(a + 1).  Elsewhere in
    the saddle-point form e^(-s(a) - D(a, u)) / sqrt(2 pi a), s the Stirling
    error and D the deviance (`_deviance`), which is off by about D ulps.
    """
    if a <= 170.0 and (u < 64.0 or u < 700.0 and a * math.log(u) < 709.0):
        gamma = math.gamma(a + 1.0) if a < 1.0 else a * math.gamma(a)
        return math.exp(-u) * u**a / gamma
    s = stirling_series(a) if a > 15.0 else float(stirling_error(np.array([a]))[0])
    return math.exp(-s - _deviance(a, u)) / math.sqrt(2.0 * math.pi * a)


#: The most terms `incomplete_gamma` sums or continued-fraction steps it
#: takes.  Near the transition both need about 9 sqrt(a) (2,900 at
#: a = `_TEMME_FROM`); outside Temme's band (`_TEMME_ETA`) a few hundred.
_PQ_TERMS = 1_000_000

#: The shape from which `incomplete_gamma` takes Temme's uniform expansion
#: near the transition, and the band |eta| <= `_TEMME_ETA` it takes it in.
_TEMME_FROM = 1e5
_TEMME_ETA = 0.1

#: c_k(eta) = sum_n _TEMME[k][n] eta^n, k = 0, 1, 2: Temme's coefficients
#: (DLMF 8.12.9, 8.12.10 and 8.12.12 with the g_k of 5.11.3), expanded
#: about eta = 0.  At |eta| <= `_TEMME_ETA` the first term left out of each
#: is below 1e-20, 1e-14 a and 1e-8 a^2 (the weights c_k carries).
_TEMME = (
    (-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600, 1 / 25515,
     -571 / 261273600, -281 / 151559100, 163879 / 197522841600,
     -5221 / 29554024500, 5246819 / 782190452736000),
    (-1 / 540, -1 / 288, 1 / 378, -77 / 77760, 1 / 4860, -1 / 2488320,
     -2743 / 151559100, 41969 / 5486745600),
    (25 / 6048, -139 / 51840, 1 / 1296, 1 / 497664),
)


def _temme(a: float, u: float, dev: float) -> tuple[float, float]:
    """(P(a, u), Q(a, u)) by Temme's uniform expansion (DLMF 8.12.3,
    8.12.4, 8.12.8): with D = a log(a/u) + u - a (`_deviance`) and
    eta = sign(u - a) sqrt(2 D / a),

        Q = erfc(sign(u - a) sqrt(D)) / 2 + R,  P = 1 - Q,
        R = e^-D / sqrt(2 pi a) (c_0(eta) + c_1(eta)/a + c_2(eta)/a^2).

    The smaller of P and Q is taken from this, the other as 1 minus it.
    c_3 / a^3 is below 1e-18 of c_0 from a = `_TEMME_FROM` on."""
    eta = math.copysign(math.sqrt(2.0 * dev / a), u - a)
    c = []
    for coefs in _TEMME:
        total = 0.0
        for coef in reversed(coefs):
            total = total * eta + coef
        c.append(total)
    rest = math.exp(-dev) / math.sqrt(2.0 * math.pi * a) * (c[0] + (c[1] + c[2] / a) / a)
    half = 0.5 * math.erfc(math.sqrt(dev))
    if u >= a:
        q = half + rest
        return 1.0 - q, q
    p = half - rest
    return p, 1.0 - p


def incomplete_gamma(a: float, u: float) -> tuple[float, float]:
    """(P(a, u), Q(a, u)), the regularized incomplete gamma functions, at
    a > 0 and u >= 0.

    From a = `_TEMME_FROM` on, wherever |eta| <= `_TEMME_ETA` (u within
    about a tenth of a), Temme's uniform expansion (`_temme`).  Elsewhere,
    below the transition u = a + 1, P is the kernel series
    sum_(m>=0) k_(a+m)(u) (`gamma_kernel`; DLMF 8.8.5 summed), a running
    product of u/(a + m), stopped once the geometric bound t r / (1 - r)
    on the terms left out, r the next ratio, is below 2^-54 of the sum.
    From it on, Q is Legendre's continued fraction (DLMF 8.9.2) times
    a k_a(u) = e^-u u^a / Gamma(a), by the modified Lentz method
    (Gautschi, ACM TOMS 5, 1979), stopped at a step within an ulp of 1.
    The other one is 1 minus it.  Raises ConvergenceError past
    `_PQ_TERMS` terms, which no a and u reach.
    """
    if not (a > 0.0 and u >= 0.0):
        raise DomainError(f"incomplete gamma needs a > 0 and u >= 0, got a={a}, u={u}")
    if u == 0.0 or u == math.inf:
        return (0.0, 1.0) if u == 0.0 else (1.0, 0.0)
    if a >= _TEMME_FROM:
        dev = _deviance(a, u)
        if dev <= 0.5 * _TEMME_ETA**2 * a:
            return _temme(a, u, dev)
    kernel = gamma_kernel(a, u)
    if u < a + 1.0:
        total = term = 1.0
        shape = a + 1.0
        ratio = u / shape
        for _ in range(_PQ_TERMS):
            term *= ratio
            total += term
            shape += 1.0
            ratio = u / shape
            if term * ratio <= 2.0**-54 * (1.0 - ratio) * total:
                p = kernel * total
                return p, 1.0 - p
    else:
        tiny = 1e-300
        b = u + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        fraction = d
        for i in range(1, _PQ_TERMS):
            step = -i * (i - a)
            b += 2.0
            d = step * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + step / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
            if abs(d * c - 1.0) <= 2.0**-52:
                q = a * kernel * fraction
                return 1.0 - q, q
    raise ConvergenceError(
        f"incomplete gamma at a={a}, u={u} did not converge within {_PQ_TERMS} terms",
        terms_used=_PQ_TERMS,
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
        log_f1 = (_lgamma_diff(b, c) - digamma(c) * delta
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
