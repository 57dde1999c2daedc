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
    _kummer_head,
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
        # For b >> a the terms peak far below z, where the z > 256 branch
        # must start its summation.
        mp.mp.dps = 40
        got = kummer_1f1(a, b, z)
        want = float(mp.log(mp.hyp1f1(a, b, z)))
        assert abs(math.expm1(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "a,b,z",
        [(13.8, 15.0, 694.1), (5.0, 6.0, 800.0), (20.0, 21.0, 1000.0), (50.0, 52.0, 700.0)],
    )
    def test_large_z_start_term_is_accurate(self, a, b, z):
        # The z > 256 branch sums from a start term near k = 350-900, whose
        # log taken as a difference of lgamma values of size k log k is off
        # by up to 1e-12; the log's own spacing here is 1-2e-13.
        mp.mp.dps = 40
        got = kummer_1f1(a, b, z)
        want = float(mp.log(mp.hyp1f1(a, b, z)))
        assert abs(math.expm1(got - want)) < 3.5e-13

    def test_head_with_no_positive_peak(self):
        # The term ratio (1 + k) z / ((b + k)(k + 1)) = z / (b + k) is below
        # 1 from k = 0: the peak root is k = -1, and no head is skipped.
        z = 5e5
        log_tol = math.log(1e-15)
        c = math.sqrt(2.0 * (-log_tol + math.log1p(z) + 5.0))
        assert _kummer_head(1.0, 1e6 + 1.0, z, c, log_tol) is None
        want = float(mp.log(mp.hyp1f1(1, 1e6 + 1, z)))
        assert rel_err(kummer_1f1(1.0, 1e6 + 1.0, z), want) < 1e-14

    def test_term_count_reported(self):
        val, terms = kummer_1f1_terms(2.0, 5.0, 30.0)[:2]
        assert terms > 10
        assert rel_err(math.exp(val), float(mp.hyp1f1(2, 5, 30))) < 1e-12

    def test_domain_and_budget(self):
        with pytest.raises(DomainError):
            kummer_1f1(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 0.0, 1.0)
        # The cap binds the power series, in plain floats and in blocks.
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


def _regime(a, b, z, result):
    if result.log_large_z is not None:
        return "large-z"
    return "short" if z * max(1.0, a / b) <= specfun._SHORT_SERIES_TO else "blocks"


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

    # (0.01, 500, 49) stops in blocks after 14 terms, where the ratios
    # still rise for a < 1 and z max(1, a/b) / (k+1) alone is above 1.
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
            short_edge = specfun._SHORT_SERIES_TO / max(1.0, a / b)
            zs = [0.5, 0.999 * short_edge, 1.001 * short_edge, 255.0, 257.0]
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
                    seen.add("reflected " + _regime(b - a, b, -z, inner))
                    continue
                seen.add(_regime(a, b, z, got))
                self.assert_bound_covers_the_left_out_terms(a, b, z, got)
        assert seen == {"short", "blocks", "large-z", "reflected short",
                        "reflected blocks", "reflected large-z"}

    @staticmethod
    def assert_bound_covers_the_left_out_terms(a, b, z, got):
        a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        if got.log_large_z is None:
            # The power series past its reported terms (the head a block
            # sum skips is covered too: it is within the partial sum here).
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
