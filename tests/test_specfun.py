"""Unit tests for the special-function layer."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

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

    def test_term_count_reported(self):
        val, terms = kummer_1f1_terms(2.0, 5.0, 30.0)
        assert terms > 10
        assert rel_err(math.exp(val), float(mp.hyp1f1(2, 5, 30))) < 1e-12

    def test_domain_and_budget(self):
        with pytest.raises(DomainError):
            kummer_1f1(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 0.0, 1.0)
        with pytest.raises(ConvergenceError):
            kummer_1f1(2.0, 5.0, 400.0, SeriesControl(rel_tol=1e-15, max_terms=12))

    def test_default_control(self):
        assert DEFAULT_CONTROL.rel_tol == 1e-15
        assert DEFAULT_CONTROL.max_terms == 10_000
