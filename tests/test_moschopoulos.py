"""Tests for the single-gamma-series evaluator and its weight recursion."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy import special as sp
from scipy.optimize import minimize_scalar

from gammaconv.errors import ConvergenceError, DomainError
from gammaconv.mathai import cdf_n, density2
from gammaconv.methods import _log_kernel_peak
from gammaconv.model import ConvolutionSpec, canonicalize
from gammaconv.moschopoulos import (
    WeightDistribution,
    build_weights,
    cdf,
    density,
    extend_weights,
)
from gammaconv.specfun import SeriesControl

from conftest import grid_between, random_spec, rel_err


class TestWeightRecursion:
    def test_hand_computed_values(self):
        # For components (2, 1), (3, 2): q = 1/2 for the second component,
        # so gamma_k = 3 (1/2)^k / k and delta_{k+1} follows by hand:
        # C = (1/2)^3 = 0.125, delta_0 = 1, gamma_1 = 1.5,
        # delta_1 = gamma_1 delta_0 = 1.5,
        # delta_2 = (gamma_1 delta_1 + 2 gamma_2 delta_0) / 2 = 1.5.
        spec = ConvolutionSpec.of((2, 1), (3, 2))
        w = build_weights(spec, 2)
        assert rel_err(w.c, 0.125) < 1e-15
        assert w.deltas[0] == 1.0
        assert rel_err(w.gammas[1], 1.5) < 1e-15
        assert rel_err(w.deltas[1], 1.5) < 1e-14
        assert rel_err(w.deltas[2], 1.5) < 1e-14
        assert w.rho == 5.0
        assert w.beta1 == 1.0

    def test_two_component_weights_are_negative_binomial(self):
        # With n = 2 the weight distribution is exactly negative binomial
        # with size a2 and success probability q = b1/b2.
        spec = ConvolutionSpec.of((1.7, 2.0), (2.3, 5.0))
        a2, q = 2.3, 2.0 / 5.0
        w = build_weights(spec, 200)
        k = np.arange(201)
        want = np.exp(
            a2 * math.log(q)
            + sp.gammaln(a2 + k)
            - math.lgamma(a2)
            - sp.gammaln(k + 1.0)
            + k * math.log1p(-q)
        )
        got = w.c * w.deltas
        assert float(np.max(np.abs(got - want))) < 1e-12

    def test_weights_nonnegative_and_mass_below_one(self):
        for spec in (ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0), (0.2, 40.0)),
                     ConvolutionSpec.of((0.2, 4.0), (0.2, 0.3), (0.2, 0.2))):
            w = build_weights(spec, 400)
            assert np.all(w.deltas >= 0.0)
            mass = np.cumsum(w.masses)
            assert np.all(np.diff(mass) >= 0.0)
            assert 1.0 - 5e-4 < mass[-1] <= 1.0 + 1e-12

    def test_extend_matches_fresh_build(self):
        spec = ConvolutionSpec.of((2.0, 2.0), (2.0, 3.0), (2.0, 5.0))
        fresh = build_weights(spec, 150)
        # upto = 0 is the one-entry stage build_weights itself starts from.
        for start in (0, 40):
            grown = extend_weights(build_weights(spec, start), spec, 150)
            assert np.array_equal(fresh.deltas, grown.deltas)
            assert np.array_equal(fresh.gammas, grown.gammas)

    def test_extend_noop_below_current(self):
        spec = ConvolutionSpec.of((2.0, 2.0), (2.0, 3.0))
        w = build_weights(spec, 50)
        assert extend_weights(w, spec, 10) is w

    def test_negative_upto(self):
        with pytest.raises(DomainError):
            build_weights(ConvolutionSpec.of((1, 1), (1, 2)), -1)

    def test_weight_pmf(self):
        spec = ConvolutionSpec.of((2, 1), (3, 2))
        masses = build_weights(spec, 1).masses
        assert rel_err(masses[0], 0.125) < 1e-15
        assert rel_err(masses[1], 0.125 * 1.5) < 1e-14
        with pytest.raises(DomainError):
            build_weights(spec, -1)


class TestGammaKernelBound:
    """The bound must dominate the kernel over all shapes >= shape_min."""

    @pytest.mark.parametrize("beta", [0.3, 1.0, 27.0])
    @pytest.mark.parametrize("x", [0.05, 1.0, 10.0, 200.0])
    @pytest.mark.parametrize("shape_min", [0.2, 1.0, 5.0, 50.0])
    def test_dominates_brute_force_maximum(self, x, shape_min, beta):
        def neg_log_kernel(s):
            return -((s - 1.0) * math.log(x) - x / beta
                     - math.lgamma(s) - s * math.log(beta))

        res = minimize_scalar(
            neg_log_kernel,
            bounds=(shape_min, shape_min + max(4.0 * x / beta, 50.0)),
            method="bounded",
        )
        # also scan a dense grid in case the optimizer misses the mode
        grid = np.linspace(shape_min, shape_min + max(4.0 * x / beta, 50.0), 4001)
        vals = (grid - 1.0) * math.log(x) - x / beta - sp.gammaln(grid) \
            - grid * math.log(beta)
        brute_log_max = max(-res.fun, float(vals.max()))
        assert math.log(2.0) + _log_kernel_peak(x, shape_min, beta) >= brute_log_max


class TestDensityAndCdf:
    def test_single_component(self):
        spec = ConvolutionSpec.of((2.5, 1.5))
        for x in (0.5, 3.75, 12.0):
            assert rel_err(density(spec, x).value, stats.gamma.pdf(x, 2.5, scale=1.5)) < 1e-12
            assert rel_err(cdf(spec, x).value, stats.gamma.cdf(x, 2.5, scale=1.5)) < 1e-12

    def test_matches_closed_form_n2(self, seeded_random):
        for _ in range(20):
            spec = random_spec(seeded_random, 2)
            mean = float(spec.shapes @ spec.scales)
            for x in grid_between(0.2 * mean, 3.0 * mean, 5):
                assert rel_err(density(spec, x).value, density2(spec, x).value) < 1e-11
                assert rel_err(cdf(spec, x).value, cdf_n(spec, x).value) < 1e-11
        # Across the 1F1's switch from its power series to the large-z form,
        # near z = (1/0.3 - 1/4) x = 111.
        spec = ConvolutionSpec.of((20.0, 0.3), (20.0, 4.0))
        for x in np.linspace(10.0, 42.0, 33):
            assert rel_err(density(spec, x).value, density2(spec, x).value) < 1e-12

    def test_equal_scales_collapse(self):
        spec = ConvolutionSpec.of((1.5, 3.0), (2.5, 3.0))
        for x in (2.0, 12.0, 30.0):
            assert rel_err(density(spec, x).value, stats.gamma.pdf(x, 4.0, scale=3.0)) < 1e-12

    def test_amortized_weights_identical(self):
        spec = ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0), (0.2, 40.0))
        w = build_weights(spec, 600)
        for x in (5.0, 20.0, 60.0):
            assert density(spec, x).value == density(spec, x, weights=w).value
            assert cdf(spec, x).value == cdf(spec, x, weights=w).value

    def test_boundaries_and_domain(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
        assert density(spec, 0.0).value == 0.0
        assert cdf(spec, 0.0).value == 0.0
        with pytest.raises(DomainError):
            density(spec, -1.0)
        with pytest.raises(DomainError):
            cdf(spec, -1.0)
        with pytest.raises(DomainError):
            density(ConvolutionSpec.of((0.3, 2.0), (0.3, 8.0)), 0.0)

    def test_density_at_zero_total_shape_one(self):
        spec = ConvolutionSpec.of((0.5, 2.0), (0.5, 8.0))
        want = (2.0 / 8.0) ** 0.5 / 2.0
        assert rel_err(density(spec, 0.0).value, want) < 1e-14

    def test_budget_exhaustion(self):
        spec = ConvolutionSpec.of((2.0, 0.2), (2.0, 40.0))
        tight = SeriesControl(rel_tol=1e-13, max_terms=8)
        stub = build_weights(spec, 2)
        with pytest.raises(ConvergenceError):
            density(spec, 100.0, ctrl=tight, weights=stub)
        with pytest.raises(ConvergenceError):
            cdf(spec, 100.0, ctrl=tight, weights=stub)

    def test_tail_bound_honest(self):
        # Truncation error measured against a far-longer reference run must
        # stay within the reported bound.
        spec = ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0), (0.2, 40.0))
        loose = SeriesControl(rel_tol=1e-6, max_terms=100_000)
        for x in (5.0, 25.0, 80.0):
            short = density(spec, x, ctrl=loose)
            ref = density(spec, x).value
            assert abs(short.value - ref) <= short.tail_bound + 1e-15 * ref

    @pytest.mark.parametrize("x", [200.0, 500.0])
    def test_right_tail_density(self, x):
        # Gamma(2, 1) + Gamma(2, 2): the kernel peaks near k = x - 4, far past
        # the first table (83 terms), whose left-out mass rounds to zero.
        # f(x) = e^{-x/2} / 4 * int_0^x t (x - t) e^{-t/2} dt in closed form.
        mp.mp.dps = 40
        xm = mp.mpf(x)
        moment = lambda k: 2 ** (k + 1) * mp.gammainc(k + 1, 0, xm / 2)  # noqa: E731
        want = float(mp.exp(-xm / 2) / 4 * (xm * moment(1) - moment(2)))
        got = density(ConvolutionSpec.of((2.0, 1.0), (2.0, 2.0)), x)
        assert rel_err(got.value, want) < 1e-12
        assert got.terms_used > 83
        assert got.tail_bound <= 1e-15 * got.value

    @pytest.mark.parametrize("x", [500.0, 12000.0])
    def test_far_tail_with_fast_decaying_weights(self, x):
        # Gamma(1, 1) + Gamma(1, 1.1) + Gamma(1, 1.2): the weights fall like
        # (1/6)^k, so a few hundred terms bound the tail although the kernel
        # peaks near k = x.  The closed form is a sum of exponentials; at
        # x = 12000 the density (about e^-10000) underflows to zero.
        rates = [1.0, 1.0 / 1.1, 1.0 / 1.2]
        want = sum(
            r * math.prod(s / (s - r) for s in rates if s != r) * math.exp(-r * x)
            for r in rates
        )
        got = density(ConvolutionSpec.of((1.0, 1.0), (1.0, 1.1), (1.0, 1.2)), x)
        assert got.terms_used < 1000
        if x < 1000.0:
            assert rel_err(got.value, want) < 1e-12
        else:
            assert got.value == want == 0.0
            assert got.tail_bound == 0.0

    @pytest.mark.parametrize(
        "pairs",
        [
            ((2.0, 1.0), (2.0, 2.0)),
            ((0.2, 4.0), (0.2, 0.3)),
            ((10.0, 1.0), (0.3, 1.5), (2.0, 8.0)),
        ],
    )
    def test_left_out_mass_bound(self, pairs):
        # The density's tail bound needs the weight mass past a table where
        # 1 - sum(table) rounds to zero.
        spec = canonicalize(ConvolutionSpec.of(*pairs))
        w = build_weights(spec, 3000)
        past = np.cumsum(w.masses[::-1])[::-1]  # past[k]: mass at indices >= k
        for k in range(10, 2500, 23):
            if past[k] > 1e-300:
                assert past[k] <= math.exp(w.log_mass_past(k))
