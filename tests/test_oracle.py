"""Tests for the independent verification oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from gammaconv.errors import DomainError
from gammaconv.model import ConvolutionSpec, MixtureExpSpec
from gammaconv.oracle import (
    CounterRng,
    hypoexp_closed_form,
    hypoexp_closed_form_cdf,
    sample_convolution,
    sample_renewal_count,
)

from conftest import laplace_reference, rel_err


class TestCounterRng:
    def test_deterministic(self):
        a = CounterRng(123).uniforms(1000)
        b = CounterRng(123).uniforms(1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = CounterRng(123, stream=0).uniforms(1000)
        b = CounterRng(123, stream=1).uniforms(1000)
        assert not np.array_equal(a, b)

    def test_uniforms_in_open_interval(self):
        u = CounterRng(7).uniforms(100_000)
        assert u.min() > 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_counter_advances(self):
        rng = CounterRng(5)
        a = rng.uniforms(10)
        b = rng.uniforms(10)
        assert not np.array_equal(a, b)

    def test_normals_moments(self):
        z = CounterRng(11).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 9.0])
    def test_gamma_moments(self, alpha):
        g = CounterRng(13).standard_gammas(alpha, 200_000)
        assert np.all(g > 0.0)
        # mean alpha, variance alpha; 6-sigma tolerances on the averages
        assert abs(g.mean() - alpha) < 6.0 * math.sqrt(alpha / 200_000)
        assert abs(g.var() - alpha) < 0.05 * alpha + 0.01

    def test_gamma_bad_shape(self):
        with pytest.raises(DomainError):
            CounterRng(1).standard_gammas(0.0, 10)

    def test_gamma_ks_against_scipy(self):
        g = CounterRng(17).standard_gammas(2.0, 100_000)
        d = stats.kstest(g, stats.gamma(2.0).cdf).statistic
        assert d < 1.95 / math.sqrt(100_000)  # 99.9% KS band


class TestSamplers:
    def test_convolution_moments(self):
        spec = ConvolutionSpec.of((2.0, 3.0), (1.5, 0.5))
        y = sample_convolution(spec, 200_000, seed=42)
        mean = 2.0 * 3.0 + 1.5 * 0.5
        var = 2.0 * 9.0 + 1.5 * 0.25
        assert abs(y.mean() - mean) < 6.0 * math.sqrt(var / 200_000)
        assert abs(y.var() - var) < 0.05 * var

    def test_convolution_deterministic(self):
        spec = ConvolutionSpec.of((2.0, 3.0), (1.5, 0.5))
        assert np.array_equal(
            sample_convolution(spec, 100, seed=1), sample_convolution(spec, 100, seed=1)
        )

    def test_renewal_poisson_case(self):
        # Single exponential: N(t) is Poisson(t / b).
        mix = MixtureExpSpec((1.0,), (2.0,))
        counts = sample_renewal_count(mix, 10.0, 200_000, seed=9)
        lam = 5.0
        assert abs(counts.mean() - lam) < 6.0 * math.sqrt(lam / 200_000)
        for n in (0, 3, 5, 9):
            emp = float(np.mean(counts == n))
            want = stats.poisson.pmf(n, lam)
            se = math.sqrt(want * (1.0 - want) / 200_000)
            assert abs(emp - want) < 5.0 * se + 1e-12

    def test_renewal_domain(self):
        with pytest.raises(DomainError):
            sample_renewal_count(MixtureExpSpec((1.0,), (2.0,)), 0.0, 10, seed=1)


class TestLaplaceReference:
    """The tests' Laplace-inversion reference against closed forms."""

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_matches_gamma_n1(self, quantity):
        spec = ConvolutionSpec.of((2.5, 1.5))
        law = stats.gamma(2.5, scale=1.5)
        want = law.pdf(3.0) if quantity == "density" else law.cdf(3.0)
        assert rel_err(laplace_reference(spec, 3.0, quantity), want) < 1e-13

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    @pytest.mark.parametrize(
        "scales,x", [((2.0, 5.0), 4.0), ((2.0, 3.0, 5.0), 8.0)], ids=["n2", "n3"]
    )
    def test_matches_hypoexp(self, scales, x, quantity):
        spec = ConvolutionSpec.of(*((1.0, b) for b in scales))
        closed = hypoexp_closed_form if quantity == "density" else hypoexp_closed_form_cdf
        want = closed([1.0 / b for b in scales], x)
        assert rel_err(laplace_reference(spec, x, quantity), want) < 1e-13


class TestHypoexpClosedForms:
    def test_two_rates_by_hand(self):
        # l1=1, l2=2: f(x) = 2 (e^{-x} - e^{-2x})
        x = 0.7
        want = 2.0 * (math.exp(-x) - math.exp(-2.0 * x))
        assert rel_err(hypoexp_closed_form((1.0, 2.0), x), want) < 1e-14

    def test_cdf_consistent_with_density(self):
        rates = (0.5, 1.0 / 3.0, 0.2)
        h = 1e-6
        for x in (1.0, 5.0, 12.0):
            fd = (
                hypoexp_closed_form_cdf(rates, x + h)
                - hypoexp_closed_form_cdf(rates, x - h)
            ) / (2.0 * h)
            assert rel_err(fd, hypoexp_closed_form(rates, x)) < 1e-7

    def test_cdf_limits(self):
        rates = (1.0, 2.0)
        assert abs(hypoexp_closed_form_cdf(rates, 0.0)) < 1e-14
        assert abs(hypoexp_closed_form_cdf(rates, 80.0) - 1.0) < 1e-12

    def test_distinct_rates_required(self):
        with pytest.raises(DomainError):
            hypoexp_closed_form((1.0, 1.0), 2.0)
        with pytest.raises(DomainError):
            hypoexp_closed_form_cdf((1.0, 1.0), 2.0)

