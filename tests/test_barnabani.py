"""Tests for the moment-matched GNBD approximation."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy import special as sp

from gammaconv import barnabani, bench, methods
from gammaconv.errors import DomainError, FitFailureError
from gammaconv.barnabani import (
    GnbdParams,
    WeightMoments,
    cdf_approx,
    density_approx,
    fit_gnbd,
    gnbd_cumulants,
    gnbd_pmf,
    weight_cumulants,
)
from gammaconv.mathai import cdf_n, density_n
from gammaconv.model import ConvolutionSpec, canonicalize
from gammaconv.moschopoulos import build_weights

from conftest import grid_between, rel_err


class TestGnbdParams:
    def test_constraints(self):
        GnbdParams(2.0, 0.5, 0.3)
        with pytest.raises(DomainError):
            GnbdParams(0.0, 0.5, 0.3)
        with pytest.raises(DomainError):
            GnbdParams(2.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            GnbdParams(2.0, 4.0, 0.3)


class TestGnbdPmf:
    def test_beta_one_is_negative_binomial(self):
        params = GnbdParams(3.5, 1.0, 0.4)
        k = np.arange(60)
        want = stats.nbinom.pmf(k, 3.5, 1.0 - 0.4)
        got = gnbd_pmf(params, k)
        assert float(np.max(np.abs(got - want))) < 1e-14

    def test_mass_sums_to_one_for_beta_ge_one(self):
        for m, b, t in [(2.0, 1.3, 0.35), (5.0, 1.8, 0.2), (1.5, 1.0, 0.6)]:
            params = GnbdParams(m, b, t)
            total = float(gnbd_pmf(params, np.arange(5000)).sum())
            assert abs(total - 1.0) < 1e-10

    def test_slightly_improper_for_beta_below_one(self):
        # Truncating the support at m + (beta_g - 1) k + 1 <= 0 leaves a
        # small positive excess mass; the family is only approximately a
        # distribution for beta_g < 1.
        total = float(gnbd_pmf(GnbdParams(0.8, 0.6, 0.5), np.arange(5000)).sum())
        assert 0.0 < total - 1.0 < 1e-3

    def test_finite_support_for_small_beta(self):
        # beta_g < 1 truncates the support where m + (beta_g - 1) k + 1 <= 0
        params = GnbdParams(3.0, 0.5, 0.4)
        k_cut = math.ceil((3.0 + 1.0) / 0.5)
        assert gnbd_pmf(params, np.arange(k_cut, k_cut + 10)).max() == 0.0


class TestGnbdCumulants:
    @pytest.mark.parametrize(
        "m,b,t",
        [(2.0, 1.3, 0.35), (5.0, 1.8, 0.2), (1.5, 1.0, 0.6)],
    )
    def test_closed_form_vs_numeric(self, m, b, t):
        params = GnbdParams(m, b, t)
        closed = gnbd_cumulants(params)
        p = gnbd_pmf(params, np.arange(200_000))
        k = np.arange(200_000, dtype=float)
        mu = float(k @ p)
        var = float((k * k) @ p) - mu * mu
        third = float((k**3) @ p) - 3.0 * mu * float((k * k) @ p) + 2.0 * mu**3
        assert rel_err(closed.k1, mu) < 1e-9
        assert rel_err(closed.k2, var) < 1e-9
        assert rel_err(closed.k3, third) < 1e-7


class TestWeightCumulants:
    def test_against_weight_recursion(self):
        spec = ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0), (0.2, 40.0))
        mom = weight_cumulants(spec)
        w = build_weights(spec, 4000)
        p = w.c * w.deltas
        k = np.arange(p.shape[0], dtype=float)
        mu = float(k @ p)
        var = float((k * k) @ p) - mu * mu
        third = float((k**3) @ p) - 3.0 * mu * float((k * k) @ p) + 2.0 * mu**3
        assert rel_err(mom.k1, mu) < 1e-10
        assert rel_err(mom.k2, var) < 1e-10
        assert rel_err(mom.k3, third) < 1e-8


class TestFitGnbd:
    def test_recovers_negative_binomial_targets(self):
        # Cumulants of an actual NB must be matched with beta_g == 1.
        ref = gnbd_cumulants(GnbdParams(3.0, 1.0, 0.45))
        fit = fit_gnbd(ref)
        assert rel_err(fit.beta_g, 1.0) < 1e-9
        assert rel_err(fit.m, 3.0) < 1e-9
        assert rel_err(fit.theta, 0.45) < 1e-9

    @pytest.mark.parametrize(
        "m,b,t", [(2.0, 1.3, 0.35), (5.0, 1.8, 0.2), (1.5, 1.0, 0.6)]
    )
    def test_round_trip(self, m, b, t):
        ref = gnbd_cumulants(GnbdParams(m, b, t))
        fit = fit_gnbd(ref)
        assert rel_err(fit.m, m) < 1e-8
        assert rel_err(fit.beta_g, b) < 1e-8
        assert rel_err(fit.theta, t) < 1e-8

    def test_moment_match_quality(self):
        spec = ConvolutionSpec.of((0.2, 27.0), (0.2, 32.0), (0.2, 40.0))
        target = weight_cumulants(spec)
        fit = fit_gnbd(target)
        got = gnbd_cumulants(fit)
        assert rel_err(got.k1, target.k1) < 1e-9
        assert rel_err(got.k2, target.k2) < 1e-9
        assert rel_err(got.k3, target.k3) < 1e-9

    def test_heterogeneous_shapes_can_be_infeasible(self):
        # This shape/scale combination lands on the family's skewness
        # bound, so no GNBD matches all three cumulants.
        spec = ConvolutionSpec.of((0.4, 27.0), (0.3, 32.0), (0.2, 40.0))
        with pytest.raises(FitFailureError):
            fit_gnbd(weight_cumulants(spec))

    def test_unreachable_skewness_fails(self):
        k1, k2 = 2.0, 5.0
        bound = 3.0 - 2.0 * math.sqrt(k1 / k2)
        k3 = (bound + 0.5) * k2**2 / k1  # above the family's skewness cap
        with pytest.raises(FitFailureError):
            fit_gnbd(WeightMoments(k1, k2, k3))

    def test_underdispersed_fails(self):
        with pytest.raises(FitFailureError):
            fit_gnbd(WeightMoments(2.0, 1.0, 1.0))

    def test_degenerate_inputs_fail(self):
        with pytest.raises(FitFailureError):
            fit_gnbd(WeightMoments(0.0, 1.0, 1.0))
        with pytest.raises(FitFailureError):
            fit_gnbd(WeightMoments(1.0, 0.0, 1.0))


class TestApproxEvaluators:
    @pytest.mark.parametrize(
        "triple,scales",
        [
            ((0.2, 0.2, 0.2), (27.0, 32.0, 40.0)),
            ((4.0, 0.3, 0.2), (10.0, 18.0, 30.0)),
            ((2.0, 2.0, 2.0), (2.0, 3.0, 5.0)),
        ],
    )
    def test_tracks_exact_density(self, triple, scales):
        spec = ConvolutionSpec.of(*zip(triple, scales))
        mean = float(spec.shapes @ spec.scales)
        worst = 0.0
        for x in grid_between(0.3 * mean, 2.5 * mean, 9):
            exact = density_n(spec, x).value
            approx = density_approx(spec, x).value
            worst = max(worst, abs(approx - exact) / max(exact, 1e-300))
        assert worst < 0.05  # approximation-level agreement, not exactness

    def test_tracks_exact_cdf(self):
        spec = ConvolutionSpec.of((0.2, 27.0), (0.2, 32.0), (0.2, 40.0))
        mean = float(spec.shapes @ spec.scales)
        for y in grid_between(0.3 * mean, 2.5 * mean, 7):
            exact = cdf_n(spec, y).value
            approx = cdf_approx(spec, y).value
            assert abs(approx - exact) < 5e-3

    def test_exact_for_n2(self):
        # Two components give an exactly negative-binomial weight law,
        # which the GNBD family contains, so the approximation is exact.
        spec = ConvolutionSpec.of((1.7, 2.0), (2.3, 5.0))
        for x in (1.0, 8.0, 25.0):
            assert rel_err(
                density_approx(spec, x).value, density_n(spec, x).value
            ) < 1e-8
            assert rel_err(cdf_approx(spec, x).value, cdf_n(spec, x).value) < 1e-8

    def test_single_component_exact(self):
        spec = ConvolutionSpec.of((2.5, 1.5))
        for x in (0.5, 3.75, 12.0):
            assert rel_err(
                density_approx(spec, x).value, stats.gamma.pdf(x, 2.5, scale=1.5)
            ) < 1e-12

    def test_boundaries_and_domain(self):
        spec = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
        assert density_approx(spec, 0.0).value == 0.0
        assert cdf_approx(spec, 0.0).value == 0.0
        with pytest.raises(DomainError):
            density_approx(spec, -1.0)
        with pytest.raises(DomainError):
            cdf_approx(spec, -1.0)
        with pytest.raises(DomainError):
            density_approx(ConvolutionSpec.of((0.3, 2.0), (0.3, 8.0)), 0.0)


def doubled_table(params, first):
    """GNBD masses at k = 0..K, K starting at `first` and doubling until the
    masses are within rel_tol/10 of one: the rule that ends the fitted
    table."""
    ctrl = barnabani.CONTROL_APPROX
    k_max = min(first, ctrl.max_terms)
    while True:
        w = gnbd_pmf(params, np.arange(k_max + 1))
        if 1.0 - w.sum() <= 0.1 * ctrl.rel_tol or k_max >= ctrl.max_terms:
            return w
        k_max = min(2 * k_max, ctrl.max_terms)


class TestApproxTable:
    SETTINGS = [canonicalize(bench.spec_for(alpha, scales))
                for alpha, scales in bench.TABLE2_SETTINGS]

    @staticmethod
    def fitted(spec):
        return barnabani._fit_for_spec(spec), barnabani.approx_law(spec, barnabani.CONTROL_APPROX)

    def test_masses_are_the_table_sized_by_the_gnbd_sd(self):
        # The first table ends at the mean + 14 sd of the GNBD itself, not
        # of sqrt(m theta) / D^1.5, which left 5,633 and 6,930 masses at
        # alpha = 20 (scales 4/0.3/0.2 and 4/3/0.2).  Kept masses equal that
        # wider table's wherever both reach.
        for spec in self.SETTINGS:
            params, law = self.fitted(spec)
            d = 1.0 - params.theta * params.beta_g
            wide_sd = math.sqrt(params.m * params.theta) / d**1.5
            wide = doubled_table(params, int(params.m * params.theta / d + 14.0 * wide_sd + 100.0))
            size = min(wide.shape[0], law.masses.shape[0])
            assert np.array_equal(law.masses[:size], wide[:size])
            assert not hasattr(law, "grow")
        _, law = self.fitted(canonicalize(bench.spec_for(20.0, (4.0, 3.0, 0.2))))
        assert law.masses.shape[0] <= 2_100

    def test_cut_leaves_out_at_most_half_an_ulp_of_one(self):
        # Of the masses past k = 0, which carry the density where the total
        # shape is tiny (TestMixture::test_tiny_total_shape in test_methods).
        for spec in self.SETTINGS:
            params, law = self.fitted(spec)
            cum = gnbd_cumulants(params)
            table = doubled_table(params, int(cum.k1 + 14.0 * math.sqrt(cum.k2) + 100.0))
            size = law.masses.shape[0]
            assert np.array_equal(law.masses, table[:size])
            past = np.cumsum(table[::-1])[::-1]  # past[j]: the masses from j on
            tail = 2.0**-54 * past[1]
            assert size == table.shape[0] or past[size] <= tail < past[size - 1]

    def test_table_grows_by_appending(self, monkeypatch):
        # Gamma(2,4) + Gamma(2,3) + Gamma(2,0.2) fits a GNBD near the
        # negative binomial, whose lgamma arguments m + (beta_g - 1) k + 1
        # stay below 15 far out: 672 of them in the first table, 1,318 at
        # its final length.  The doubled table appends the masses past the
        # first and equals, bit for bit, the table built at its final length
        # in one call.
        spec = canonicalize(ConvolutionSpec.of((2.0, 4.0), (2.0, 3.0), (2.0, 0.2)))
        params = barnabani._fit_for_spec(spec)
        starts = []
        real = barnabani.gnbd_pmf

        def recorded(p, k):
            starts.append(int(k[0]))
            return real(p, k)

        monkeypatch.setattr(barnabani, "gnbd_pmf", recorded)
        masses = barnabani._approx_weights(params, barnabani.CONTROL_APPROX)
        monkeypatch.undo()
        assert starts == [0, 647]
        cum = gnbd_cumulants(params)
        whole = doubled_table(params, int(cum.k1 + 14.0 * math.sqrt(cum.k2) + 100.0))
        assert whole.shape[0] == 1_293
        assert masses.tobytes() == whole[: masses.shape[0]].tobytes()

    def test_stages_are_prefixes_of_the_table(self, monkeypatch):
        # The fitted law is its whole table at any upto.  A row far in the
        # right tail (u = 5,000) moves through prefixes of it up to its end,
        # where it is answered as it stands.
        spec = canonicalize(bench.spec_for(20.0, (4.0, 3.0, 0.2)))
        ctrl = barnabani.CONTROL_APPROX
        _, full = self.fitted(spec)
        law = barnabani.approx_law(spec, ctrl, upto=40)
        assert np.array_equal(law.masses, full.masses)
        rows = []
        real = methods.mixture_rows

        def recorded(quantity, row_law, xs, sizes):
            rows.append((row_law, *sizes))
            return real(quantity, row_law, xs, sizes)

        monkeypatch.setattr(methods, "mixture_rows", recorded)
        got = methods.converge_rows("density", [1000.0], ctrl, law, [41])[0]
        assert all(row_law is law for row_law, _ in rows)
        sizes = [size for _, size in rows]
        assert sizes[:3] == [41, 125, 251] and sizes[-1] == got.terms_used == law.masses.shape[0]

    def test_deep_left_tail_cdf_extends_within_the_table(self):
        # At u = y/b1 = 30 the point's cut stage (77 masses) holds almost
        # none of a law whose mass sits near k = 800; its tail bound fails,
        # and the stage runs on within the table.
        spec = canonicalize(bench.spec_for(20.0, (4.0, 3.0, 0.2)))
        ctrl = barnabani.CONTROL_APPROX
        y = 30.0 * float(spec.scales[0])
        got = cdf_approx(spec, y)
        assert methods._kernel_cut(spec, y) + 1 < got.terms_used
        law = barnabani.approx_law(spec, ctrl)
        uncut = methods.converge_rows("cdf", [y], ctrl, law, [law.masses.shape[0]])[0]
        assert 0.0 < got.value and rel_err(got.value, uncut.value) <= 1e-15
