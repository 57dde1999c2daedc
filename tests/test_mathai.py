"""Tests for the confluent-hypergeometric convolution evaluators."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from gammaconv import bench, methods, moschopoulos
from gammaconv.errors import ConvergenceError, DomainError
from gammaconv.mathai import (
    CONTROL_N,
    ShellTable,
    _series_cutoff,
    cdf_n,
    density2,
    density_n,
)
from gammaconv.model import ConvolutionSpec, canonicalize
from gammaconv.oracle import hypoexp_closed_form, hypoexp_closed_form_cdf
from gammaconv.specfun import DEFAULT_CONTROL, kummer_1f1_terms

from conftest import grid_between, laplace_reference, random_spec, rel_err


class TestSingleComponent:
    """A one-component spec must reduce to the plain gamma law."""

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (3.0, 0.7), (10.0, 5.0)])
    def test_density(self, a, b):
        spec = ConvolutionSpec.of((a, b))
        for x in (0.1, 1.0, a * b, 4 * a * b):
            want = stats.gamma.pdf(x, a, scale=b)
            assert rel_err(density2(spec, x).value, want) < 1e-12
            assert rel_err(density_n(spec, x).value, want) < 1e-12

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (3.0, 0.7)])
    def test_cdf(self, a, b):
        spec = ConvolutionSpec.of((a, b))
        for y in (0.1, a * b, 6 * a * b):
            want = stats.gamma.cdf(y, a, scale=b)
            assert rel_err(cdf_n(spec, y).value, want) < 1e-12


class TestEqualScalesCollapse:
    """Equal scales merge, so the result is again a single gamma."""

    def test_density_and_cdf(self):
        spec = ConvolutionSpec.of((1.5, 3.0), (2.5, 3.0), (0.5, 3.0))
        for x in (0.5, 5.0, 13.5, 40.0):
            assert rel_err(
                density_n(spec, x).value, stats.gamma.pdf(x, 4.5, scale=3.0)
            ) < 1e-12
            assert rel_err(
                cdf_n(spec, x).value, stats.gamma.cdf(x, 4.5, scale=3.0)
            ) < 1e-12


class TestTwoRateHypoexp:
    """Shape-1 components give a hypoexponential with a closed form."""

    @pytest.mark.parametrize("b1,b2", [(1.0, 2.0), (0.3, 4.0), (27.0, 32.0)])
    def test_density(self, b1, b2):
        spec = ConvolutionSpec.of((1.0, b1), (1.0, b2))
        rates = (1.0 / b1, 1.0 / b2)
        for x in grid_between(0.05 * (b1 + b2), 5.0 * (b1 + b2), 9):
            want = hypoexp_closed_form(rates, x)
            got = density2(spec, x).value
            assert rel_err(got, want) < 1e-12
            assert rel_err(density_n(spec, x).value, want) < 1e-12
            assert rel_err(moschopoulos.density(spec, x).value, got) < 1e-12

    @pytest.mark.parametrize("b1,b2", [(1.0, 2.0), (0.3, 4.0)])
    def test_cdf(self, b1, b2):
        spec = ConvolutionSpec.of((1.0, b1), (1.0, b2))
        rates = (1.0 / b1, 1.0 / b2)
        for y in grid_between(0.05 * (b1 + b2), 5.0 * (b1 + b2), 9):
            want = hypoexp_closed_form_cdf(rates, y)
            assert rel_err(cdf_n(spec, y).value, want) < 1e-12


class TestThreeRateHypoexp:
    def test_density_and_cdf(self):
        b = (2.0, 3.0, 5.0)
        spec = ConvolutionSpec.of((1.0, b[0]), (1.0, b[1]), (1.0, b[2]))
        rates = tuple(1.0 / s for s in b)
        for x in grid_between(1.0, 40.0, 9):
            assert rel_err(
                density_n(spec, x).value, hypoexp_closed_form(rates, x)
            ) < 1e-11
            assert rel_err(
                cdf_n(spec, x).value, hypoexp_closed_form_cdf(rates, x)
            ) < 1e-11


class TestOrderInvariance:
    """Component order must not matter (canonicalization sorts by scale)."""

    def test_n2(self):
        a = ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0))
        b = ConvolutionSpec.of((0.3, 32.0), (0.4, 27.0))
        for x in (1.0, 10.0, 30.0):
            assert density2(a, x).value == density2(b, x).value
            assert cdf_n(a, x).value == cdf_n(b, x).value

    def test_n3(self):
        a = ConvolutionSpec.of((2.0, 4.0), (2.0, 0.3), (2.0, 0.2))
        b = ConvolutionSpec.of((2.0, 0.2), (2.0, 4.0), (2.0, 0.3))
        for x in (0.5, 5.0, 15.0):
            assert density_n(a, x).value == density_n(b, x).value
            assert cdf_n(a, x).value == cdf_n(b, x).value


class TestN2AgainstLaplaceInversion:
    @pytest.mark.parametrize(
        "pairs",
        [((0.4, 27.0), (0.3, 32.0)), ((4.0, 10.0), (0.3, 18.0)), ((2.0, 2.0), (2.0, 3.0))],
    )
    def test_density(self, pairs):
        spec = ConvolutionSpec.of(*pairs)
        mean = float(spec.shapes @ spec.scales)
        for x in grid_between(0.1 * mean, 3.0 * mean, 7):
            assert rel_err(density2(spec, x).value, laplace_reference(spec, x)) < 1e-12


class TestDensityNMatchesDensity2:
    def test_n2_reduction(self, seeded_random):
        for _ in range(25):
            spec = random_spec(seeded_random, 2)
            mean = float(spec.shapes @ spec.scales)
            for x in grid_between(0.2 * mean, 3.0 * mean, 5):
                assert rel_err(
                    density_n(spec, x).value, density2(spec, x).value
                ) < 1e-11
                assert rel_err(
                    cdf_n(spec, x).value, moschopoulos.cdf(spec, x).value
                ) < 1e-11


class TestShellTable:
    """`ShellTable`: the x-free shells of the n >= 3 series, shared by points."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_gamma_series(self, seeded_random, n):
        # A shared table gives each point the value of a table of its own,
        # bit for bit; both agree with the independent gamma series.
        for _ in range(4):
            spec = canonicalize(random_spec(seeded_random, n))
            table = ShellTable(spec)
            mean = float(spec.shapes @ spec.scales)
            for x in (0.3 * mean, mean, 2.5 * mean):
                got = density_n(spec, x, weights=table)
                assert got == density_n(spec, x)
                assert rel_err(got.value, moschopoulos.density(spec, x).value) < 1e-11

    @pytest.mark.parametrize("alpha,scales,pins", [
        (20.0, (4.0, 3.0, 0.2), ((85.0, 144453), (155.0, 419986), (224.0, 819840))),
        (2.0, (4.0, 0.3, 0.2), ((3.0, 1225), (10.0, 5565), (30.0, 27966))),
        (0.2, (0.4, 0.3, 0.2), ((0.05, 66), (0.95, 276), (1.9, 465))),
    ])
    def test_terms_used_pinned(self, alpha, scales, pins):
        # Table 2 settings; the counts are those of the shell-by-shell sum
        # the shell table replaced.
        spec = bench.spec_for(alpha, scales)
        for x, terms in pins:
            assert density_n(spec, x).terms_used == terms

    def test_longer_table_repeats_shorter(self):
        spec = canonicalize(bench.spec_for(2.0, (4.0, 3.0, 0.2)))
        short, grown = ShellTable(spec), ShellTable(spec)
        short.grow(100)
        for size in (30, 64, 100, 250):
            grown.grow(size)
        assert np.array_equal(grown.base[:100], short.base)

    def test_alpha_20_density_against_mpmath(self):
        # Gamma(20, 4) + Gamma(20, 0.3) + Gamma(20, 0.2): the references are
        # the 40-digit mpmath values of perfbench/data/inputs.json.  Read
        # off a running logaddexp sum of the shells instead of their
        # shifted sum, the first point's value is 1.4e-12 off.
        spec = canonicalize(bench.spec_for(20.0, (4.0, 0.3, 0.2)))
        table = ShellTable(spec)
        for x, want in (
            (131.10818592421418, 0.0020372089046222888115),
            (150.32206119946952, 0.00027592560121291904205),
        ):
            assert rel_err(density_n(spec, x).value, want) < 1e-12
            assert rel_err(density_n(spec, x, weights=table).value, want) < 1e-12

    @staticmethod
    def numpy_terms_used(table, x, ctrl, shells):
        """The count `_terms_used` gives, as the numpy sum it replaced."""
        kj = _series_cutoff(float(np.sum(table.c * x)), ctrl)
        head = (table.c.shape[0] - 1) * (kj - 1) + 1
        r = np.arange(shells)
        return int(np.sum(np.minimum(r, head - 1) - np.maximum(0, r - kj + 1) + 1))

    def test_terms_used_closed_form_equals_the_numpy_count(self):
        rng = random.Random(20261021)
        cap = CONTROL_N.max_terms
        for n in (3, 4, 5, 6, 10):
            for _ in range(6):
                table = ShellTable(canonicalize(random_spec(rng, n)))
                for x in (rng.uniform(1e-3, 1.0), rng.uniform(1.0, 50.0),
                          rng.uniform(50.0, 5e3), rng.uniform(5e3, 1e6)):
                    kj = _series_cutoff(float(np.sum(table.c * x)), CONTROL_N)
                    head = (n - 2) * (kj - 1) + 1
                    for shells in {1, 2, rng.randint(1, cap), cap, kj, kj + 1, head,
                                   head + 1, min(head + kj + 5, cap)}:
                        assert table._terms_used(x, CONTROL_N, shells) == \
                            self.numpy_terms_used(table, x, CONTROL_N, shells), (n, x, shells)

    def test_infinite_cumulants_raise_before_growing(self, monkeypatch):
        # Past a scale ratio of about 1e108 the point x = 1 needs about
        # x/b1 = 1e110 shells; set-up raises before the table grows any.
        grows = []
        real = ShellTable.grow

        def counted(self, size):
            grows.append(size)
            real(self, size)

        monkeypatch.setattr(ShellTable, "grow", counted)
        spec = ConvolutionSpec.of((2.0, 1e-110), (3.0, 1.0), (1.0, 2.0))
        with pytest.raises(ConvergenceError) as failed:
            density_n(spec, 1.0)
        assert failed.value.terms_used == 0
        assert grows == []


class TestBoundaryAndDomain:
    def test_cdf_at_zero(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
        assert cdf_n(spec, 0.0).value == 0.0

    def test_density_at_zero_total_shape_gt_one(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
        assert density2(spec, 0.0).value == 0.0
        assert density_n(spec, 0.0).value == 0.0

    def test_density_at_zero_total_shape_one(self):
        # exponential-sum limit: f(0) = prod (b1/bj)^aj / b1
        spec = ConvolutionSpec.of((0.5, 2.0), (0.5, 8.0))
        want = (2.0 / 8.0) ** 0.5 / 2.0
        assert rel_err(density2(spec, 0.0).value, want) < 1e-14
        assert rel_err(density_n(spec, 0.0).value, want) < 1e-14

    def test_density_at_zero_diverges(self):
        spec = ConvolutionSpec.of((0.3, 2.0), (0.3, 8.0))
        with pytest.raises(DomainError):
            density2(spec, 0.0)

    def test_negative_argument(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
        for fn in (density2, density_n, cdf_n):
            with pytest.raises(DomainError):
                fn(spec, -1.0)

    def test_component_count_guard(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0), (1.0, 5.0))
        with pytest.raises(DomainError):
            density2(spec, 1.0)


class TestLargeKummerArgument:
    def test_density2_far_from_equal_shapes(self):
        # z = (1 - 1/1.5) 1250 = 416.67 > 256 with b = 2a: the Kummer terms
        # peak near k = 249, not near z.
        mp.mp.dps = 40
        a, b1, b2, x = 500, 1, mp.mpf("1.5"), 1250
        gamma_pdf = x ** (2 * a - 1) * mp.exp(-x / b1) / (mp.gamma(2 * a) * b1 ** (2 * a))
        want = (b1 / b2) ** a * gamma_pdf * mp.hyp1f1(a, 2 * a, (1 / b1 - 1 / b2) * x)
        assert abs(float(want) - 0.009896) < 1e-6
        spec = ConvolutionSpec.of((500.0, 1.0), (500.0, 1.5))
        assert rel_err(density2(spec, 1250.0).value, float(want)) < 1e-10


def mp_density2(a1, b1, a2, b2, x):
    """The 1F1 form of the n = 2 density at 40 digits, b1 < b2."""
    with mp.workdps(40):
        a1, b1, a2, b2, x = (mp.mpf(v) for v in (a1, b1, a2, b2, x))
        g = a1 + a2
        gamma_pdf = x ** (g - 1) * mp.exp(-x / b1) / (mp.gamma(g) * b1**g)
        return (b1 / b2) ** a2 * gamma_pdf * mp.hyp1f1(a2, g, (1 / b1 - 1 / b2) * x)


class TestDensity2TailBound:
    def test_large_z_form_folds_e_z(self):
        # z = (1/0.3 - 1/4) 600 = 1850: -x/b1 + z is formed by neither
        # side, so the value keeps its digits (the power series read
        # 2.3e-13 off here).
        spec = ConvolutionSpec.of((20.0, 0.3), (20.0, 4.0))
        got = density2(spec, 600.0)
        assert rel_err(got.value, mp_density2(20, 0.3, 20, 4, 600)) <= 1e-14
        assert got.terms_used < 20

    def test_bound_covers_the_truncation(self):
        # Seeded specs over the bulk and the far right tail, every 1F1
        # regime among them: the bound is finite, it is the value times
        # the 1F1's relative bound (which `tests/test_specfun.py` checks
        # against the exact left-out terms), and the value is within the
        # bound plus its rounding of the 40-digit reference.
        rng = random.Random(20261022)
        regimes = set()
        for _ in range(12):
            a1, a2 = rng.uniform(0.2, 30.0), rng.uniform(0.2, 30.0)
            b1 = math.exp(rng.uniform(-1.5, 0.5))
            b2 = b1 * math.exp(rng.uniform(0.1, math.log(30.0)))
            spec = ConvolutionSpec.of((a1, b1), (a2, b2))
            mean = a1 * b1 + a2 * b2
            for x in (0.2 * mean, mean, 3.0 * mean, 10.0 * mean):
                got = density2(spec, x)
                f1 = kummer_1f1_terms(a2, a1 + a2, (1.0 / b1 - 1.0 / b2) * x)
                regimes.add(f1.log_large_z is not None)
                assert math.isfinite(got.tail_bound)
                assert got.tail_bound == got.value * f1.rel_bound
                want = mp_density2(a1, b1, a2, b2, x)
                assert abs(got.value - want) <= got.tail_bound + 5e-14 * want, (spec, x)
        assert regimes == {True, False}

    def test_bound_where_the_ratios_still_rise(self):
        # z = 49 with a2 = 0.01 and gamma = 500 or 1500: the 1F1 stops
        # after a few terms while its term ratios still rise, and the
        # bound stays finite; where the value underflows it is 0, not nan.
        got = density2(ConvolutionSpec.of((499.99, 1.0), (0.01, 2.0)), 98.0)
        assert 0.0 < got.tail_bound <= 1e-15 * got.value
        gone = density2(ConvolutionSpec.of((1500.0, 1.0), (0.01, 2.0)), 98.0)
        assert (gone.value, gone.tail_bound) == (0.0, 0.0)


class TestCdfShape:
    def test_monotone_and_bounded(self, seeded_random):
        for n in (2, 3, 4):
            spec = random_spec(seeded_random, n)
            mean = float(spec.shapes @ spec.scales)
            grid = grid_between(0.05 * mean, 5.0 * mean, 25)
            values = [cdf_n(spec, y).value for y in grid]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tail_bound_reported(self):
        spec = ConvolutionSpec.of((2.0, 2.0), (2.0, 3.0), (2.0, 5.0))
        res = cdf_n(spec, 20.0)
        assert res.tail_bound is not None
        assert 0.0 <= res.tail_bound <= 1e-10 * max(res.value, 1e-300)


class TestNegativeBinomialSumLaw:
    """The CDF sums the exact NB-sum weight law (`methods.nb_sum_law`)."""

    def test_cdf_n_stops_short_of_max_terms(self):
        # The NB(20, 0.05) factor's 1 - sum stays near 4e-14 at any length,
        # so a table completed to mass 1 - rel_tol/10 runs to max_terms.
        spec = bench.spec_for(20.0, (4.0, 3.0, 0.2))
        for y in bench.bulk_grid(spec):
            got = cdf_n(spec, float(y))
            assert got.terms_used < CONTROL_N.max_terms
            assert rel_err(got.value, moschopoulos.cdf(spec, float(y)).value) < 1e-12

    def test_cdf2_matches_mpmath_at_large_shapes(self):
        # Gamma(200, 1) + Gamma(300, 2) at its mean: sum_k w_k G(800; 500 + k)
        # with NB(300, 1/2) masses, at 30 digits.
        with mp.workdps(30):
            a, total, k = mp.mpf(300), mp.mpf(0), 0
            while True:
                w = mp.exp(mp.loggamma(a + k) - mp.loggamma(a) - mp.loggamma(k + 1)
                           - (a + k) * mp.log(2))
                term = w * mp.gammainc(500 + k, 0, 800, regularized=True)
                total += term
                if k > 300 and term < mp.mpf(10) ** -40:
                    break
                k += 1
            want = float(total)
        got = cdf_n(ConvolutionSpec.of((200.0, 1.0), (300.0, 2.0)), 800.0).value
        assert rel_err(got, want) < 5e-14

    @pytest.mark.parametrize("alpha,scales", bench.TABLE1_SETTINGS)
    def test_cdf2_first_law_size(self, alpha, scales):
        # kappa_1 + 12 sqrt(kappa_2) + 32 terms of NB(a2, b1/b2)
        spec = canonicalize(bench.spec_for(alpha, scales))
        q = min(scales) / max(scales)
        mean, var = alpha * (1.0 - q) / q, alpha * (1.0 - q) / q**2
        count = int(mean + 12.0 * math.sqrt(var)) + 32
        assert methods.nb_sum_law(spec, DEFAULT_CONTROL).masses.shape[0] == count

    @pytest.mark.parametrize("alpha,scales", bench.TABLE1_SETTINGS)
    def test_cdf2_first_stage_is_cut_at_the_point(self, alpha, scales):
        # Below u = y/b1 = 64 a point starts from min(law size, cut + 1)
        # masses, cut = max(u - rho, 0) + 8 sqrt(u) + 32; these points
        # converge on that stage.
        spec = canonicalize(bench.spec_for(alpha, scales))
        size = methods.nb_sum_law(spec, DEFAULT_CONTROL).masses.shape[0]
        b1 = min(scales)
        for u in (0.5, 5.0, 20.0):
            cut = int(max(u - spec.total_shape, 0.0) + 8.0 * math.sqrt(u) + 32.0)
            assert cdf_n(spec, u * b1).terms_used == min(size, cut + 1)
