"""Unit tests for the special-function layer."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from gammaconv import specfun
from gammaconv.errors import ConvergenceError, DomainError
from gammaconv.specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    kummer_1f1,
    kummer_1f1_terms,
)

from conftest import rel_err


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=1.5)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=0)


class TestKummer:
    def test_examples(self):
        assert math.exp(kummer_1f1(0.5, 1.5, 0.0)) == 1.0
        assert rel_err(math.exp(kummer_1f1(2.5, 2.5, 1.3)), math.exp(1.3)) < 1e-13
        assert rel_err(math.exp(kummer_1f1(1.0, 2.0, 1.0)), math.e - 1.0) < 1e-13
        assert math.exp(kummer_1f1(0.0, 4.0, 17.0)) == 1.0

    def test_contiguity_identity(self):
        # 1F1(1; 2; z) * z = e^z - 1
        for z in np.linspace(-50.0, 50.0, 41):
            if z == 0.0:
                continue
            got = math.exp(kummer_1f1(1.0, 2.0, float(z))) * z
            assert rel_err(got, math.expm1(z)) < 1e-10

    def test_against_mpmath(self):
        mp.mp.dps = 40
        rng = random.Random(7)
        for _ in range(60):
            a = rng.uniform(0.05, 60.0)
            b = a + rng.uniform(0.01, 60.0)
            z = rng.choice(
                [rng.uniform(-40.0, 0.0), rng.uniform(0.0, 5.0), rng.uniform(5.0, 2500.0)]
            )
            got = kummer_1f1(a, b, z)
            want = mp.log(mp.hyp1f1(a, b, z))
            assert abs(got - float(want)) < 5e-11

    @pytest.mark.parametrize("a,b,z", [(500.0, 1000.0, 416.67), (1.0, 100.0, 300.0)])
    def test_large_z_peak_far_below_z(self, a, b, z):
        # For b >> a the power-series terms peak far below z.
        mp.mp.dps = 40
        got = kummer_1f1(a, b, z)
        want = float(mp.log(mp.hyp1f1(a, b, z)))
        assert abs(math.expm1(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "a,b,z",
        [(13.8, 15.0, 694.1), (5.0, 6.0, 800.0), (20.0, 21.0, 1000.0), (50.0, 52.0, 700.0)],
    )
    def test_large_z_start_term_is_accurate(self, a, b, z):
        # Values past the double range, by the large-z form; the log's own
        # spacing here is 1-2e-13.
        mp.mp.dps = 40
        got = kummer_1f1(a, b, z)
        want = float(mp.log(mp.hyp1f1(a, b, z)))
        assert abs(math.expm1(got - want)) < 3.5e-13

    def test_head_with_no_positive_peak(self):
        # The term ratio (1 + k) z / ((b + k)(k + 1)) = z / (b + k) is below
        # 1 from k = 0: the terms fall from the first.
        z = 5e5
        want = float(mp.log(mp.hyp1f1(1, 1e6 + 1, z)))
        assert rel_err(kummer_1f1(1.0, 1e6 + 1.0, z), want) < 1e-14

    def test_series_past_the_double_range(self):
        # The power series scales its sum down as it passes a power of two,
        # so its terms run past e^709 with no overflow: 1F1(5; 5; z) = e^z.
        assert rel_err(kummer_1f1(5.0, 5.0, 800.0), 800.0) <= 1e-15
        with mp.workdps(40):
            for a, b, z in [(2000.0, 4000.0, 3000.0), (300.0, 600.0, 1000.0),
                            (500.0, 1000.0, 416.67)]:
                got = kummer_1f1_terms(a, b, z)
                assert got.log_large_z is None
                assert abs(got.log - mp.log(mp.hyp1f1(a, b, z))) <= 5e-14, (a, b, z)

    def test_reflected_large_z_takes_b_minus_a_exactly(self):
        # 1F1(a; b; z) = e^z 1F1(b - a; b; -z), whose large-z form is taken
        # at b - a as rounded; the prefactor must still be Gamma(b) /
        # Gamma(b - a) (-z)^-a at the exact b - a.
        a, b, z = 0.178, 35.64, -428.0
        assert kummer_1f1_terms(b - a, b, -z).log_large_z is not None
        with mp.workdps(40):
            want = mp.log(mp.hyp1f1(a, b, z))
        assert abs(kummer_1f1(a, b, z) - want) <= 1e-15

    def test_term_count_reported(self):
        val, terms = kummer_1f1_terms(2.0, 5.0, 30.0)[:2]
        assert terms > 10
        assert rel_err(math.exp(val), float(mp.hyp1f1(2, 5, 30))) < 1e-12

    def test_domain_and_budget(self):
        with pytest.raises(DomainError):
            kummer_1f1(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 0.0, 1.0)
        # The cap binds the power series, at small and at large z.
        capped = SeriesControl(rel_tol=1e-15, max_terms=12)
        for a, b, z in [(2.0, 5.0, 30.0), (500.0, 1000.0, 416.67)]:
            assert kummer_1f1_terms(a, b, z).log_large_z is None
            assert kummer_1f1_terms(a, b, z).terms > 12
            with pytest.raises(ConvergenceError):
                kummer_1f1(a, b, z, capped)
        # At z = 400 the large-z form is exact in two terms, within the cap.
        got = kummer_1f1_terms(2.0, 5.0, 400.0, capped)
        assert got.terms == 2 and got.log_large_z is not None
        want = mp.log(mp.hyp1f1(2, 5, 400))
        assert abs(got.log - float(want)) <= 1e-14 * float(want)

    def test_default_control(self):
        assert DEFAULT_CONTROL.rel_tol == 1e-15
        assert DEFAULT_CONTROL.max_terms == 10_000


def _regime(result):
    return "series" if result.log_large_z is None else "large-z"


def _large_z_onset(a, b):
    """About where the large-z form is first taken, on a grid of z."""
    for z in np.geomspace(b - a + 1.0, 5000.0, 200):
        if specfun._kummer_large_z(a, b, float(z), DEFAULT_CONTROL) is not None:
            return float(z)
    return None


class TestKummerRegimes:
    """Each regime of `kummer_1f1_terms` against mpmath 1.3.0 at 40 digits,
    on both sides of every switch: its value, and its truncation bound
    against the exact sum of the terms it left out (give or take 1e-35,
    the references' own precision)."""

    # (0.01, 500, 49) stops after 14 terms, where the ratios still rise
    # for a < 1 and z max(1, a/b) / (k+1) alone is above 1.
    NAMED = [(20.0, 40.0, 127.0), (20.0, 40.0, 302.0), (20.0, 40.0, 473.0),
             (20.5, 40.7, 300.0), (0.2, 0.4, 53.0), (2.0, 4.0, 114.0),
             (0.01, 500.0, 49.0)]

    @classmethod
    def grid(cls):
        rng = random.Random(20261020)
        points = list(cls.NAMED)
        for _ in range(12):
            a = rng.choice([rng.uniform(0.1, 3.0), rng.uniform(3.0, 30.0),
                            float(rng.randint(1, 25))])
            b = a + rng.choice([rng.uniform(0.1, 3.0), rng.uniform(3.0, 40.0)])
            # Both sides of z max(1, a/b) = 48 and of z = 256, where the
            # series once changed form.
            edge = 48.0 / max(1.0, a / b)
            zs = [0.5, 0.999 * edge, 1.001 * edge, 255.0, 257.0]
            onset = _large_z_onset(a, b)
            if onset is not None:
                zs += [0.97 * onset, onset]
            points += [(a, b, z) for z in zs]
        # The reflected side: z < 0 sums 1F1(b - a; b; -z).
        points += [(b - a, b, -z) for a, b, z in points]
        return points

    def test_value_and_bound_in_every_regime(self):
        seen = set()
        with mp.workdps(40):
            for a, b, z in self.grid():
                got = kummer_1f1_terms(a, b, z)
                want = mp.log(mp.hyp1f1(a, b, z))
                assert abs(got.log - want) <= 1e-14 * max(1.0, abs(want)), (a, b, z)
                assert 0.0 <= got.rel_bound < 1e-13, (a, b, z)
                if z < 0:
                    inner = kummer_1f1_terms(b - a, b, -z)
                    assert (got.terms, got.rel_bound) == (inner.terms, inner.rel_bound)
                    seen.add("reflected " + _regime(inner))
                    continue
                seen.add(_regime(got))
                self.assert_bound_covers_the_left_out_terms(a, b, z, got)
        assert seen == {"series", "large-z", "reflected series", "reflected large-z"}

    @staticmethod
    def assert_bound_covers_the_left_out_terms(a, b, z, got):
        a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        if got.log_large_z is None:
            # The power series past its reported terms.
            full = mp.hyp1f1(a, b, z)
            part = mp.fsum(mp.rf(a, k) * z**k / (mp.rf(b, k) * mp.factorial(k))
                           for k in range(got.terms))
            assert -1e-35 * full <= full - part <= (got.rel_bound + 1e-35) * full
            return
        # The large-z sum A = 1F1 Gamma(a) / (Gamma(b) e^z z^(a-b)).
        whole = mp.hyp1f1(a, b, z) * mp.gamma(a) / (mp.gamma(b) * mp.exp(z) * z ** (a - b))
        part = mp.fsum(mp.rf(b - a, s) * mp.rf(1 - a, s) / (mp.factorial(s) * z**s)
                       for s in range(got.terms))
        assert abs(whole - part) <= (got.rel_bound + 1e-35) * whole
        assert abs(mp.exp(got.log_large_z) - whole) <= 1e-14 * whole


def _mp_ref(fn, *args):
    """fn(*args) at 40 digits, accepted only where 60 digits agree with it
    to 1e-20 relative."""
    with mp.workdps(40):
        lo = fn(*(mp.mpf(a) for a in args))
    with mp.workdps(60):
        hi = fn(*(mp.mpf(a) for a in args))
    assert abs(lo - hi) <= 1e-20 * abs(hi), args
    return lo


EPS = 2.0**-52


class TestGammaFunctions:
    """log-gamma, psi and P/Q against mpmath: the gamma functions the
    request path uses, in numpy and math code alone."""

    @staticmethod
    def log_gamma_points():
        rng = np.random.default_rng(20261020)
        return np.concatenate((
            np.exp(rng.uniform(math.log(1e-8), math.log(1e6), 300)),
            np.arange(1.0, 61.0), [15.0, 15.05, 15.5, 15.999, 170.0, 1000.0, 1e5, 1e6],
            1.0 + np.array([-1e-3, -1e-9, 1e-12, 1e-6, 2e-3]),
            2.0 + np.array([-1e-3, -1e-9, 1e-12, 1e-6, 2e-3]),
        ))

    def test_log_gamma_one_by_one_and_stirling(self):
        # Arrays of a few entries, as the exact routes pass: off by a few
        # ulps of max(1, |lgamma|) everywhere, near 1 and 2 too.
        z = self.log_gamma_points()
        for chunk in np.array_split(z, 40):
            got = specfun.log_gamma(chunk)
            for g, v in zip(got.tolist(), chunk.tolist()):
                want = _mp_ref(mp.loggamma, v)
                assert abs(g - want) <= 6 * EPS * max(1.0, abs(want)), v

    def test_log_gamma_many_small_entries(self):
        # Hundreds of entries below 15 in one array (a fitted GNBD near the
        # negative binomial): each as accurate as alone.
        rng = np.random.default_rng(7)
        z = np.concatenate((rng.uniform(1e-8, 15.0, 400), [1.0 + 1e-9, 2.0 - 1e-9, 7.0, 300.0]))
        got = specfun.log_gamma(z)
        for g, v in zip(got.tolist(), z.tolist()):
            want = _mp_ref(mp.loggamma, v)
            assert abs(g - want) <= 6 * EPS * max(1.0, abs(want)), v

    def test_log_gamma_of_zero_is_inf(self):
        # gnbd_pmf reads lgamma(k + 1) from k = 0 and ShellTable.grow reads
        # it from its first shell, k = 0: exact zeros at 1 and 2.
        assert specfun.log_gamma(np.arange(3.0)).tolist() == [math.inf, 0.0, 0.0]
        assert specfun.log_gamma(np.zeros(100))[0] == math.inf

    def test_stirling_error_and_log_gamma_are_elementwise(self):
        # One rule at every entry: each value is the same, bit for bit,
        # alone and inside arrays of any length that mix entries below and
        # above 15 (and 0, in log_gamma's domain only); 10,000 entries take
        # the steps in two blocks.  Past 15 the Stirling error is the series
        # itself.
        rng = np.random.default_rng(20261021)
        small = np.concatenate((
            np.exp(rng.uniform(math.log(1e-8), math.log(15.0), 300)),
            np.arange(1.0, 16.0), np.arange(0.5, 15.0), [1e-300, 15.0],
        ))
        large = np.concatenate((
            np.exp(rng.uniform(math.log(15.0), math.log(1e6), 300)),
            np.arange(16.0, 40.0), [np.nextafter(15.0, 16.0), 1e300],
        ))
        assert specfun.stirling_error(large).tobytes() == specfun.stirling_series(large).tobytes()
        for fn, zero in ((specfun.stirling_error, []), (specfun.log_gamma, [0.0])):
            assert fn(np.empty(0)).shape == (0,)
            pool = np.concatenate((small, large, zero))
            alone = {v: fn(np.array([v]))[0] for v in pool.tolist()}
            for n in (16, 17, 300, 5000, 10_000):
                z = rng.permutation(np.concatenate((
                    rng.choice(small, n // 2), rng.choice(large, n - n // 2 - len(zero)), zero,
                )))
                want = np.array([alone[v] for v in z.tolist()])
                assert fn(z).tobytes() == want.tobytes(), (fn.__name__, n)

    def test_stirling_error_below_15_matches_mpmath(self):
        # The recurrence's 16 steps, each within about an ulp of 1.
        rng = np.random.default_rng(20261022)
        z = np.exp(rng.uniform(math.log(1e-8), math.log(15.0), 500))
        got = specfun.stirling_error(z)
        for g, v in zip(got.tolist(), z.tolist()):
            want = _mp_ref(
                lambda x: mp.loggamma(x + 1) - (x * mp.log(x) - x + mp.log(2 * mp.pi * x) / 2), v
            )
            assert abs(g - want) <= 4e-15, v

    def test_digamma_at_the_reflected_1f1s_c(self):
        # psi corrects lgamma(c) at c = b - a for the reflected large-z 1F1;
        # its c lie anywhere above 0.  The root near 1.4616 is held to an
        # absolute few ulps.
        rng = random.Random(20261020)
        cs = [35.64 - 0.178, 1.4616321449683622, 0.5, 1.0, 2.0, 9.99, 10.0, 1e-3]
        cs += [math.exp(rng.uniform(math.log(1e-3), math.log(1e4))) for _ in range(100)]
        for c in cs:
            want = _mp_ref(mp.digamma, c)
            assert abs(specfun.digamma(c) - want) <= 6 * EPS * max(1.0, abs(want)), c

    @staticmethod
    def pq_cases():
        rng = random.Random(20261021)
        cases = [(1e4, 1e4), (1e4, 1e4 + 1.0), (1e4, 1e4 + 2.0), (1e4, 9990.0), (1e4, 5e3),
                 (1e4, 2e4), (0.5, 1.4), (1e-3, 1e-3), (3e-20, 1.0), (142.89, 8.0),
                 (170.0, 1000.0), (2.0, 1e4), (1e4, 1e-3)]
        for _ in range(200):
            a = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
            if rng.random() < 0.8:
                u = a * math.exp(rng.uniform(-1.2, 1.2))  # both tails and the transition
            else:
                u = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
            cases.append((a, u))
        return cases

    @staticmethod
    def mp_pq(a, u):
        """(P, Q) at the working precision: below u = a the series
        e^-u u^a / Gamma(a + 1) sum_n u^n / (a + 1)_n, whose terms fall at
        once (mpmath's own lower gamma stalls at a = 1e4, u = 1e-3); else
        mpmath's upper gamma."""
        if u < a:
            total = term = mp.mpf(1)
            shape = a + 1
            while term > mp.mpf(10) ** (-mp.mp.dps - 5) * total:
                term *= u / shape
                total += term
                shape += 1
            p = mp.exp(a * mp.log(u) - u - mp.loggamma(a + 1)) * total
            return p, 1 - p
        q = mp.gammainc(a, u, mp.inf, regularized=True)
        return 1 - q, q

    def test_incomplete_gamma_against_mpmath(self):
        # Below u = a + 1 P is summed and Q = 1 - P; from it on Q is the
        # continued fraction and P = 1 - Q.  The summed one is within
        # 3 eps (8 + D) relative, D = a log(a/u) + u - a the deviance its
        # kernel's exponent carries; the other within 6 eps absolute.
        for a, u in self.pq_cases():
            p, q = specfun.incomplete_gamma(a, u)
            with mp.workdps(40):
                want_p, want_q = self.mp_pq(mp.mpf(a), mp.mpf(u))
            with mp.workdps(60):
                check_p, check_q = self.mp_pq(mp.mpf(a), mp.mpf(u))
            assert abs(want_p - check_p) <= 1e-20 * check_p and abs(want_q - check_q) <= 1e-20 * check_q
            summed, want, other, other_want = (
                (p, want_p, q, want_q) if u < a + 1.0 else (q, want_q, p, want_p))
            deviance = float(mp.mpf(a) * mp.log(mp.mpf(a) / u) + u - a)
            tiny = np.finfo(float).tiny
            assert abs(summed - want) <= 3 * EPS * (8.0 + deviance) * max(want, tiny), (a, u)
            assert abs(other - other_want) <= 6 * EPS, (a, u)

    def test_incomplete_gamma_ends_and_domain(self):
        assert specfun.incomplete_gamma(2.5, 0.0) == (0.0, 1.0)
        assert specfun.incomplete_gamma(2.5, math.inf) == (1.0, 0.0)
        for a, u in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                specfun.incomplete_gamma(a, u)

    @staticmethod
    def mp_pq_near(a, u):
        """(P, Q) at the working precision near the transition of a large
        shape: Q from mpmath's upper gamma, and P = 1 - Q, which the
        40/60-digit check accepts only where P keeps its digits."""
        q = mp.gammainc(a, u, mp.inf, regularized=True)
        return 1 - q, q

    def check_near(self, a, u):
        p, q = specfun.incomplete_gamma(a, u)
        with mp.workdps(40):
            want_p, want_q = self.mp_pq_near(mp.mpf(a), mp.mpf(u))
        with mp.workdps(60):
            check_p, check_q = self.mp_pq_near(mp.mpf(a), mp.mpf(u))
        assert abs(want_p - check_p) <= 1e-20 * check_p
        assert abs(want_q - check_q) <= 1e-20 * check_q
        small, want, other, other_want = (
            (q, want_q, p, want_p) if u >= a else (p, want_p, q, want_q))
        deviance = float(mp.mpf(a) * mp.log(mp.mpf(a) / u) + u - a)
        assert abs(small - want) <= 3 * EPS * (8.0 + deviance) * want, (a, u)
        assert abs(other - other_want) <= 6 * EPS, (a, u)

    def test_incomplete_gamma_temme_band(self):
        # From a = 1e5 on, within u/a of about 1 +- 0.1, Temme's uniform
        # expansion: the smaller of P and Q within 3 eps (8 + D) relative,
        # the other within 6 eps, as the series and the fraction are held.
        for a in (1e5, 2e5, 1e6, 1e8):
            for t in (-6.0, -2.5, -1.0, -0.3, 0.0, 0.01, 0.7, 1.5, 4.0, 8.0):
                self.check_near(a, a + t * math.sqrt(a))

    def test_incomplete_gamma_huge_shape(self):
        # Far from the transition the series and the fraction stop within a
        # few dozen terms at any shape; at it Temme's expansion answers.
        a = 1e12
        p, q = specfun.incomplete_gamma(a, 0.5 * a)
        assert p == 0.0 and q == 1.0
        p, q = specfun.incomplete_gamma(a, 2.0 * a)
        assert p == 1.0 and q == 0.0
        self.check_near(a, a)

    def test_incomplete_gamma_band_edge(self):
        # Just inside and just outside |eta| = 0.1 at a = 1e5: Temme's
        # expansion on one side, the series or the fraction on the other.
        for u in (0.9e5, 0.905e5, 1.095e5, 1.1e5):
            p, q = specfun.incomplete_gamma(1e5, u)
            with mp.workdps(40):
                want_p, want_q = self.mp_pq(mp.mpf(1e5), mp.mpf(u))
            small, want = (q, want_q) if u >= 1e5 else (p, want_p)
            deviance = float(mp.mpf(1e5) * mp.log(mp.mpf(1e5) / u) + u - 1e5)
            assert abs(small - want) <= 3 * EPS * (8.0 + deviance) * want, u

    def test_log_factorials(self):
        # _log_f1_family's table: one running product to 170!, blocks past it.
        for count in (1, 2, 171, 172, 1500):
            got = specfun.log_factorials(count)
            assert got.shape == (count,)
            for k in sorted({0, 1, 2, count // 2, count - 2, count - 1} - {-1}):
                if 0 <= k < count:
                    want = _mp_ref(lambda x: mp.loggamma(x + 1), k)
                    assert abs(got[k] - want) <= 4 * EPS * max(1.0, abs(want)), (count, k)
