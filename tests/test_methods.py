"""Tests of the shared entry check, the mixture evaluator and the registry."""

import functools
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

import gammaconv
from gammaconv import barnabani, bench, cli, mathai, methods, moschopoulos, renewal, specfun
from gammaconv.errors import ConvergenceError, DomainError, FitFailureError, GammaConvError
from gammaconv.model import ConvolutionSpec, EvalResult, canonicalize
from gammaconv.specfun import DEFAULT_CONTROL, SeriesControl

from conftest import laplace_reference, random_spec, rel_err

SPEC2 = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))
SPEC3 = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0), (1.5, 5.0))

#: Every (method, component count, quantity) the registry serves; n = 2
#: and n = 3 reach mathai's closed forms and its multiple series.
ROUTES = [
    (method, n, quantity)
    for method in methods.METHODS
    for n in (2, 3)
    for quantity in ("density", "cdf")
]


def route_fn(method, n, quantity):
    return getattr(methods.lookup(method, canonicalize(SPEC2 if n == 2 else SPEC3)), quantity)


class TestEntryCheck:
    @pytest.mark.parametrize("method,n,quantity", ROUTES)
    @pytest.mark.parametrize("point", [math.nan, math.inf, -1.0])
    def test_rejects_bad_points(self, method, n, quantity, point):
        spec = SPEC2 if n == 2 else SPEC3
        with pytest.raises(DomainError):
            route_fn(method, n, quantity)(spec, point)

    def test_cli_rejects_nan_with_usage_exit(self, capsys):
        code = cli.main(["eval", "density", "--shape", "1,2", "--scale", "1,2",
                         "--at", "nan"])
        assert code == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method,n,quantity", ROUTES)
    def test_single_component_matches_scipy(self, method, n, quantity):
        # Equal scales merge into one Gamma(2.5, 1.5) component.
        spec = ConvolutionSpec.of((1.0, 1.5), (1.5, 1.5))
        fn = route_fn(method, n, quantity)
        law = stats.gamma(2.5, scale=1.5)
        want = law.pdf if quantity == "density" else law.cdf
        for x in (0.5, 3.75, 12.0):
            assert rel_err(fn(spec, x).value, want(x)) < 1e-12

    @pytest.mark.parametrize("method,n,quantity", ROUTES)
    def test_origin(self, method, n, quantity):
        fn = route_fn(method, n, quantity)
        above = ConvolutionSpec.of((1.0, 2.0), (2.0, 3.0))  # rho = 3
        one = ConvolutionSpec.of((0.5, 2.0), (0.5, 8.0))  # rho = 1
        below = ConvolutionSpec.of((0.3, 2.0), (0.3, 8.0))  # rho = 0.6
        assert fn(above, 0.0) == EvalResult(0.0, 1, 0.0)
        if quantity == "cdf":
            assert fn(one, 0.0) == EvalResult(0.0, 1, 0.0)
            assert fn(below, 0.0) == EvalResult(0.0, 1, 0.0)
            return
        # f(0) = prod (b1/bj)^aj / b1 when the shapes sum to one.
        assert rel_err(fn(one, 0.0).value, (2.0 / 8.0) ** 0.5 / 2.0) < 1e-14
        with pytest.raises(DomainError):
            fn(below, 0.0)


def mp_density_sum(law, x, size):
    """sum_k w_k g(x; rho + k, b1) over the law's first `size` float masses,
    each gamma kernel taken at 50 digits; terms below e^-60 times the
    largest, found from a rough float sum, are left out."""
    masses = law.masses[:size]
    shapes = law.rho + np.arange(size, dtype=float)
    with np.errstate(divide="ignore"):
        rough = (np.log(masses) + (shapes - 1.0) * math.log(x) - x / law.beta1
                 - sp.gammaln(shapes) - shapes * math.log(law.beta1))
    with mp.workdps(50):
        xm, b = mp.mpf(x), mp.mpf(law.beta1)
        terms = []
        for k in np.flatnonzero(rough > rough.max() - 60.0):
            a = mp.mpf(law.rho) + int(k)
            log_g = (a - 1) * mp.log(xm) - xm / b - mp.loggamma(a) - a * mp.log(b)
            terms.append(mp.mpf(float(masses[k])) * mp.exp(log_g))
        return float(mp.fsum(terms))


@functools.lru_cache(maxsize=None)
def mp_tiny_masses(count=320):
    """The exact weight law of Gamma(1e-20, 1) + Gamma(1e-20, 2) +
    Gamma(1e-20, 3) at k < count, its NB pmfs convolved at 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(1e-20)
        pmfs = [[mp.rf(a, k) / mp.factorial(k) * q**a * (1 - q)**k for k in range(count)]
                for q in (mp.mpf(1) / 2, mp.mpf(1) / 3)]
        return [mp.fsum(pmfs[0][i] * pmfs[1][k - i] for i in range(k + 1))
                for k in range(count)]


def mp_tiny_series(quantity, x):
    """The density or CDF of that convolution at x, summed over
    `mp_tiny_masses` with 40-digit kernels (b1 = 1)."""
    with mp.workdps(40):
        rho, xm = mp.mpf(3e-20), mp.mpf(x)
        terms = []
        for k, w in enumerate(mp_tiny_masses()):
            a = rho + k
            if quantity == "density":
                terms.append(w * mp.exp((a - 1) * mp.log(xm) - xm - mp.loggamma(a)))
            else:
                terms.append(w * mp.gammainc(a, 0, xm, regularized=True))
        return float(mp.fsum(terms))


def one_row(quantity, law, x, size=None):
    """The `mixture_rows` row at one point x over the first `size` masses
    of `law`, by default all: its value and tail bound."""
    values, tails = methods.mixture_rows(quantity, law, [x], [size or law.masses.shape[0]])
    return values[0], tails[0]


def converge_whole_law(quantity, x, ctrl, law):
    """`converge_rows` at one point x, starting over the whole of `law`."""
    return methods.converge_rows(quantity, [x], ctrl, law, [law.masses.shape[0]])[0]


def converged_law(chosen, spec, result):
    """`chosen`'s density law, grown where it is shorter than the prefix
    `result` converged on."""
    law = chosen.density_law(spec, chosen.control)
    size = result.terms_used
    return law.grow(size - 1) if size > law.masses.shape[0] else law


class TestMixture:
    def test_matches_direct_sum(self):
        masses = stats.nbinom.pmf(np.arange(40), 2.0, 0.6)
        rho, beta1 = 1.7, 0.8
        for x in (0.3, 2.0, 9.0):
            law = methods.WeightLaw(masses, rho, beta1)
            value, tail = one_row("density", law, x)
            want = sum(
                w * stats.gamma.pdf(x, rho + k, scale=beta1)
                for k, w in enumerate(masses)
            )
            assert rel_err(value, want) < 1e-12
            assert 0.0 <= tail < 1e-12
            value, tail = one_row("cdf", law, x)
            want = sum(
                w * stats.gamma.cdf(x, rho + k, scale=beta1)
                for k, w in enumerate(masses)
            )
            assert rel_err(value, want) < 1e-12

    def test_tail_covers_left_out_terms(self):
        masses = stats.nbinom.pmf(np.arange(60), 2.0, 0.6)
        for x in (0.5, 4.0, 20.0):
            for quantity in ("density", "cdf"):
                law = methods.WeightLaw(masses, 1.2, 1.0)
                full, _ = one_row(quantity, law, x)
                short, tail = one_row(quantity, law, x, 6)
                assert 0.0 <= full - short <= tail

    def test_converge_answers_a_fixed_law_as_it_stands(self):
        # A law at the end of its fixed table, as a fitted one there, is
        # answered with its value, size and tail whatever the bound; the
        # exact law at its cap raises instead
        # (test_moschopoulos.py::test_budget_exhaustion).
        law = methods.WeightLaw(stats.nbinom.pmf(np.arange(6), 2.0, 0.6), 1.2, 1.0)
        ctrl = SeriesControl(rel_tol=1e-13)
        for quantity in ("density", "cdf"):
            value, tail = one_row(quantity, law, 4.0)
            assert tail > ctrl.rel_tol * value
            assert converge_whole_law(quantity, 4.0, ctrl, law) == EvalResult(value, 6, tail)

    # Far-tail points, where the kernels' shapes reach the thousands and
    # an lgamma-form kernel's parts would cancel: each route's value
    # against the masses it converged on, summed with 50-digit kernels.
    @pytest.mark.parametrize("method", ["moschopoulos", "nbsum"])
    @pytest.mark.parametrize("spec, points", [
        (ConvolutionSpec.of((300.0, 1.0), (2.5, 50.0), (0.7, 3.0)), [1281.0, 4271.0]),
        (ConvolutionSpec.of((20.0, 4.0), (20.0, 0.3), (20.0, 0.2)), [90.0, 270.0, 900.0]),
        (ConvolutionSpec.of((2.0, 10.0), (3.0, 0.5)), [400.0]),
    ], ids=["shape-300", "alpha-20", "n2"])
    def test_far_tail_density_matches_50_digit_kernels(self, method, spec, points):
        spec = canonicalize(spec)
        chosen = methods.lookup(method, spec)
        for x in points:
            result = chosen.density(spec, x)
            law, size = converged_law(chosen, spec, result), result.terms_used
            assert one_row("density", law, x, size)[0] == result.value
            assert rel_err(result.value, mp_density_sum(law, x, size)) <= 5e-14

    @pytest.mark.parametrize("method", ["moschopoulos", "nbsum", "approx"])
    def test_density_at_tiny_x(self, method):
        # Near 1e-211 at x = 1e-300, where the kernels without their 1/x
        # underflow; at x = 5e-324, u = x/b1 rounds to 0.
        spec = canonicalize(ConvolutionSpec.of((0.3, 2.0), (0.4, 3.0), (1.0, 5.0)))
        chosen = methods.lookup(method, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e-300, 5e-324):
                result = chosen.density(spec, x)
                law = converged_law(chosen, spec, result)
                want = mp_density_sum(law, x, result.terms_used)
                assert rel_err(result.value, want) <= 1e-12

    @pytest.mark.parametrize("method", ["moschopoulos", "nbsum", "approx"])
    def test_points_far_past_the_mean(self, method):
        # From u = x/b1 of about 2^53 times the smallest shape on, (a - u)/u
        # rounds to -1 in the saddle-point kernels.
        spec = canonicalize(ConvolutionSpec.of((2.0, 1.0), (3.0, 2.0), (1.0, 3.0)))
        chosen = methods.lookup(method, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e17, 1e300):
                assert chosen.density(spec, x).value == 0.0
                assert chosen.cdf(spec, x).value == 1.0

    # Total shape 3e-20: the exact law's tail bound takes its t at the
    # edge 1/r of the generating function's domain, where it once raised a
    # bare ValueError.  The exact values stay within rounding of the 40-digit
    # sum: rel_tol bounds truncation only.  At y = 1 the CDF is within 1e-15:
    # its row takes no incomplete-gamma value at the shape rho, where
    # scipy's gammainc(3e-20, 1) is itself 3e-15 below its value.  The
    # approximation keeps criterion 7's envelope to x = 1, which its table
    # holds only if cut by the masses past k = 0 (the k = 0 kernel carries
    # a factor of about 3e-20); at x = 100 the fitted law is half off.
    TINY = ConvolutionSpec.of((1e-20, 1.0), (1e-20, 2.0), (1e-20, 3.0))

    @pytest.mark.parametrize("method", methods.METHODS + ("auto",))
    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_tiny_total_shape(self, method, quantity):
        spec = canonicalize(self.TINY)
        exact = method != "approx"
        for x in (1e-3, 1.0, 100.0) if exact else (1e-3, 1.0):
            chosen = methods.lookup(method, spec, [x])
            try:
                result = getattr(chosen, quantity)(spec, x)
            except GammaConvError:
                continue
            assert result == methods.evaluate(method, quantity, spec, [x])[0]
            want = mp_tiny_series(quantity, x)
            assert rel_err(result.value, want) <= (5e-14 if exact else 5e-2)
            if exact and quantity == "cdf" and x == 1.0:
                assert abs(result.value - want) <= 1e-15

    @pytest.mark.parametrize("shape, u", [(1e-20, 1.0), (1e-20, 5.0), (0.3, 2.0), (0.9, 3.0)])
    def test_single_component_cdf_at_a_small_shape(self, shape, u):
        # The entry check's own CDF: below shape 1, where P > 1/2, as 1 - Q
        # (scipy's gammainc(1e-20, 1) is 5.6e-16 below its value).
        spec = ConvolutionSpec.of((shape, 2.0))
        with mp.workdps(40):
            want = mp.gammainc(mp.mpf(shape), 0, mp.mpf(u), regularized=True)
        for method in methods.METHODS:
            got = methods.lookup(method, canonicalize(spec)).cdf(spec, 2.0 * u).value
            assert abs(mp.mpf(got) - want) <= 4e-16 * want

    def test_single_component_cdf_matches_mpmath(self):
        # The entry check's CDF below u = 64: the one-mass CDF row, not
        # scipy's gammainc, which read 2.06e-13 off at shape 142.89, u = 8
        # (a median of 2e-14 over shapes 10-150).  Scale 2, so that u is
        # exact; a value below the smallest normal double is held to 4e-15
        # of that.
        tiny = np.finfo(float).tiny
        rng = random.Random(20261023)
        cases = [(142.89, 8.0)] + [(rng.uniform(10.0, 150.0), u) for _ in range(25)
                                   for u in (1e-3, 0.5, 8.0, 40.0)]
        for shape, u in cases:
            got = methods.check_point(ConvolutionSpec.of((shape, 2.0)), 2.0 * u, "cdf")[1]
            with mp.workdps(40):
                want = mp.gammainc(mp.mpf(shape), 0, mp.mpf(u), regularized=True)
            assert abs(got.value - want) <= 4e-15 * max(want, tiny), (shape, u)

    @pytest.mark.parametrize("u, tol", [(64.0, 4e-14), (300.0, 2.5e-13), (3000.0, 1e-13)])
    def test_single_component_cdf_left_tail_from_64(self, u, tol):
        # The entry check's CDF from u = 64 on, in the left tail (shapes
        # 1.1u to 3u), where scipy's P read 2.3e-13, 9.8e-13 and 4.9e-12 off
        # at these u.  Its kernel e^-D / sqrt(2 pi a), D the deviance, is off
        # by about D ulps; the series after it adds a few.
        tiny = np.finfo(float).tiny
        rng = random.Random(int(u))
        for _ in range(25):
            shape = u * rng.uniform(1.1, 3.0)
            got = methods.check_point(ConvolutionSpec.of((shape, 2.0)), 2.0 * u, "cdf")[1]
            with mp.workdps(40):
                want = mp.gammainc(mp.mpf(shape), 0, mp.mpf(u), regularized=True)
            assert abs(got.value - want) <= tol * max(want, tiny), (shape, u)

    def test_cli_answers_a_tiny_total_shape(self, capsys):
        code = cli.main(["eval", "density", "--shape", "1e-20,1e-20,1e-20",
                         "--scale", "1,2,3", "--at", "1", "--method", "auto",
                         "--format", "json"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)[0]["value"] > 0.0

    # Laws and points from u = y/b1 = 64 on, where a CDF row takes the
    # stage's saddle-point kernels: the left tail, the bulk on both sides
    # of the law's mean shape and the right tail.
    @pytest.mark.parametrize("law, points", [
        # Shapes 200 and 300: the kernels' a log a is near 3,000.
        (methods.nb_sum_law(canonicalize(ConvolutionSpec.of((200.0, 1.0), (300.0, 2.0)))),
         {"left": [575.0], "bulk": [700.0, 900.0], "right": [1002.0]}),
        # Three components, 4,030 masses.
        (methods.nb_sum_law(canonicalize(ConvolutionSpec.of((5.0, 1.0), (3.0, 40.0), (2.0, 200.0)))),
         {"bulk": [110.0, 400.0, 1500.0], "right": [3700.0]}),
        # Total shape rho = 0.7 < 1.
        (methods.nb_sum_law(canonicalize(ConvolutionSpec.of((0.3, 1.0), (0.4, 300.0)))),
         {"bulk": [100.0, 900.0]}),
        # A GNBD law with beta_g < 1: its masses are zero from k = 102.
        (methods.WeightLaw(barnabani.gnbd_pmf(barnabani.GnbdParams(50.0, 0.5, 0.3),
                                              np.arange(200)), 80.0, 1.0),
         {"bulk": [75.0, 97.0, 125.0]}),
    ])
    def test_kernel_sums_match_the_gammainc_sum(self, law, points):
        masses, size = law.masses, law.masses.shape[0]
        for region, ys in points.items():
            for y in ys:
                u = y / law.beta1
                assert u >= methods._CDF_KERNEL_SUM_FROM
                # The reference: one gammainc per mass, summed exactly.  The
                # tail bound's P(rho + L, u) at 40 digits: the row continues
                # its last saddle-point kernel, whose deviance D (about 245
                # at y = 575) is rounded at about D ulps.
                want = math.fsum(masses * sp.gammainc(law.rho + np.arange(size, dtype=float), u))
                with mp.workdps(40):
                    p_past = float(mp.gammainc(mp.mpf(law.rho) + size, 0, u, regularized=True))
                bound = max(1.0 - float(masses.sum()), 0.0) * p_past
                value, tail = one_row("cdf", law, y)
                assert abs(tail - bound) <= 2e-13 * bound
                if region == "left":
                    assert want < 1e-10
                if region == "right":
                    assert 1e-7 < 1.0 - want < 1e-6
                    assert abs(value - want) <= 1e-15
                else:
                    assert rel_err(value, want) <= 1e-14

    # Seeded specs of n = 2..5 with total shapes 0.2-100, and the tiny
    # total shape, at u = y/b1 on both sides of 64 and of each kernel
    # source: each CDF row, shared (`evaluate`) and one-row (`nbsum_cdf`),
    # within 4e-15 of sum_k w_k P(rho + k, u) over the masses it converged
    # on, each P at 40 digits.  A value below the smallest normal double
    # is held to 4e-15 of that.
    CDF_ROW_US = (1e-3, 0.5, 8.0, 40.0, 63.9, 64.1, 300.0)

    @staticmethod
    def cdf_row_specs():
        rng = random.Random(20261019)
        specs = [TestMixture.TINY]
        for i, n in enumerate((2, 3, 4, 5) * 2):
            total = 0.2 * 500.0 ** ((i + rng.random()) / 8)  # one spec per eighth of the range
            parts = [rng.uniform(0.2, 1.0) for _ in range(n)]
            b1 = math.exp(rng.uniform(-1.0, 1.0))
            scales = [b1] + [b1 * math.exp(rng.uniform(0.05, math.log(8.0))) for _ in range(n - 1)]
            specs.append(ConvolutionSpec.of(*((total * p / sum(parts), b)
                                              for p, b in zip(parts, scales))))
        return [canonicalize(spec) for spec in specs]

    @staticmethod
    def mp_cdf_sum(masses, rho, u):
        """sum_k w_k P(rho + k, u) over the float masses, each P at 40
        digits, stopped once P(rho + k, u) times the masses left (which
        bounds the rest, P falling in its shape) is below 1e-25 of it."""
        with mp.workdps(40):
            ws = [mp.mpf(float(w)) for w in masses]
            left, total = mp.fsum(ws), mp.mpf(0)
            for k, w in enumerate(ws):
                p = mp.gammainc(mp.mpf(rho) + k, 0, mp.mpf(u), regularized=True)
                total += w * p
                left -= w
                if p * left <= 1e-25 * total:
                    break
            return total

    def test_cdf_rows_match_40_digit_sums(self):
        tiny = np.finfo(float).tiny
        for spec in self.cdf_row_specs():
            b1 = float(spec.scales[0])
            ys = [u * b1 for u in self.CDF_ROW_US]
            shared = methods.evaluate("nbsum", "cdf", spec, ys)
            for u, y, row in zip(self.CDF_ROW_US, ys, shared):
                assert methods.nbsum_cdf(spec, y) == row
                masses = methods.nb_sum_law(spec, count=row.terms_used).masses
                want = self.mp_cdf_sum(masses, spec.total_shape, u)
                assert abs(row.value - want) <= 4e-15 * max(want, tiny), (spec, u)

    @staticmethod
    def mp_cdf_by_recurrence(masses, rho, u):
        """sum_k w_k P(rho + k, u) over the float masses at 40 digits, and
        P(rho + L, u), L the masses' count: one gammainc at the row's end,
        then down the shapes by P(a, u) = P(a + 1, u) + k_a(u) and
        k_(a-1)(u) = k_a(u) a/u, every step a sum of positive terms."""
        with mp.workdps(40):
            u = mp.mpf(u)
            a = mp.mpf(rho) + len(masses)
            p = p_end = mp.gammainc(a, 0, u, regularized=True)
            kernel = mp.exp(a * mp.log(u) - u - mp.loggamma(a + 1))
            total = mp.mpf(0)
            for w in reversed(masses.tolist()):
                kernel *= a / u
                a -= 1
                p += kernel
                total += w * p
            return total, p_end

    def test_cdf_rows_past_three_quarters_continue_in_arrays(self, monkeypatch):
        # rho = 100, b1 = 0.3.  At y = 886 and 1,312.4 (u = 2,953 and 4,375)
        # each row's cut leaves r = u/(rho + L) at 0.86 and 0.89, past the
        # 0.75 that the fewest kernels cover: they continue by 264 and 323.
        # y = 60 (r = 0.58) continues by 133 in the same call, and y = 15
        # (u = 50) from its anchor kernel.  No row takes incomplete_gamma.
        spec = canonicalize(ConvolutionSpec.of(*[(20.0, b) for b in (0.3, 1.0, 3.0, 10.0, 30.0)]))
        rho, b1 = spec.total_shape, float(spec.scales[0])
        ys = [886.0, 15.0, 1312.4, 60.0]

        def refused(a, u):
            raise AssertionError(f"incomplete_gamma({a}, {u})")

        monkeypatch.setattr(methods, "incomplete_gamma", refused)
        rows = methods.evaluate("nbsum", "cdf", spec, ys)
        assert rows == [methods.nbsum_cdf(spec, y) for y in ys]
        rs = [y / b1 / (rho + row.terms_used) for y, row in zip(ys, rows)]
        assert 0.75 < rs[0] < rs[2] <= methods._CONTINUE_TO and rs[3] < 0.75
        for y, row in zip(ys, rows):
            u, size = y / b1, row.terms_used
            law = methods.nb_sum_law(spec, count=size)
            want, p_end = self.mp_cdf_by_recurrence(law.masses, rho, u)
            assert abs(row.value - want) <= 4e-15 * want, y
            if u < methods._CDF_KERNEL_SUM_FROM:
                continue
            # P(rho + L, u) itself carries the rounding of the row's last
            # saddle-point kernel, whose deviance a log1p(d/u) - d cancels
            # parts near 500 and 600 here; its share of the value is held
            # to 4e-15.
            _, (p,) = methods._saddle_rows(law, [y], [size])
            assert abs(p - p_end) <= 2e-13 * p_end
            assert law.total * abs(p - p_end) <= 4e-15 * want


class TestCdfTailBound:
    def test_bound_covers_a_four_times_longer_law(self):
        # 60 seeded specs, 5 points each from the left tail to the right
        # tail (quantiles of the moment-matched gamma) and 3 at u = y/b1 of
        # 0.5, 8 and 40, where the first stage is cut at the point's
        # kernel.  Each route's reported bound must cover the change its
        # value sees on a stage at least four times as long as the one it
        # converged on, give or take the rounding of the two sums.  Specs
        # whose law passes about 4,000 masses are drawn again: there the
        # longer stage would cost the recursion seconds.
        rng = random.Random(20261018)
        specs = []
        while len(specs) < 60:
            n = rng.randint(2, 4)
            b1 = math.exp(rng.uniform(-1.0, 1.0))
            scales = [b1] + [b1 * math.exp(rng.uniform(0.0, math.log(100.0)))
                             for _ in range(n - 1)]
            shapes = [math.exp(rng.uniform(math.log(0.2), math.log(50.0))) for _ in range(n)]
            spec = canonicalize(ConvolutionSpec.of(*zip(shapes, scales)))
            mean, var, _ = methods.nb_sum_cumulants(spec)
            if mean + 10.0 * math.sqrt(var) <= 4000.0:
                specs.append(spec)
        for spec in specs:
            mean = float(spec.shapes @ spec.scales)
            var = float(spec.shapes @ spec.scales**2)
            points = list(stats.gamma.ppf([1e-10, 0.05, 0.5, 0.95, 1.0 - 1e-7],
                                          mean**2 / var, scale=var / mean))
            points += [u * float(spec.scales[0]) for u in (0.5, 8.0, 40.0)]
            for name in ("mathai", "moschopoulos", "nbsum"):
                chosen = methods.lookup(name, spec)
                law = chosen.cdf_law(spec, chosen.control)
                got = [chosen.cdf(spec, float(y), chosen.control, weights=law) for y in points]
                size = 4 * max(r.terms_used for r in got) + 1
                longer = law.grow(size - 1) if size > law.masses.shape[0] else law
                for y, r in zip(points, got):
                    value, _ = one_row("cdf", longer, float(y), size)
                    assert abs(r.value - value) <= r.tail_bound + 4 * 2.2e-16 * r.value


PAPER_SETTINGS = bench.TABLE1_SETTINGS + bench.TABLE2_SETTINGS


@pytest.mark.parametrize("alpha,scales", PAPER_SETTINGS, ids=[
    f"a{alpha:g}-b{'_'.join(f'{b:g}' for b in scales)}" for alpha, scales in PAPER_SETTINGS])
def test_exact_routes_within_tail_bound_of_laplace_reference(alpha, scales):
    # Every exact route's density and CDF at the 5th, 50th and 95th point
    # of the setting's bulk grid must lie within its reported tail bound of
    # the Laplace-inversion reference, give or take 1e-13 relative for the
    # rounding of the sums.  mathai's n >= 3 density reports no bound; it
    # is held to 1e-12 relative.  Worst readings: 1.9e-14 relative on the
    # bounded routes (moschopoulos density), 3.6e-13 for that density.
    spec = canonicalize(bench.spec_for(alpha, scales))
    grid = bench.bulk_grid(spec)
    xs = [float(grid[i]) for i in (4, 49, 94)]
    for quantity in ("density", "cdf"):
        refs = [laplace_reference(spec, x, quantity) for x in xs]
        for name in ("mathai", "moschopoulos", "nbsum"):
            for x, ref, r in zip(xs, refs, methods.evaluate(name, quantity, spec, xs)):
                bound = 1e-12 * ref if r.tail_bound is None else r.tail_bound + 1e-13 * ref
                assert abs(r.value - ref) <= bound, (name, quantity, x)


#: The paper settings and two specs with scale ratio 100.
LAW_SPECS = [bench.spec_for(alpha, scales) for alpha, scales in PAPER_SETTINGS] + [
    ConvolutionSpec.of((2.0, 0.01), (3.0, 1.0)),
    ConvolutionSpec.of((0.5, 1.0), (1.5, 10.0), (4.0, 100.0)),
    # Cumulant sizes of about 1,050 and 1,400 masses: several
    # convolution blocks.
    ConvolutionSpec.of((2.0, 1.0), (2.0, 3.0), (1.5, 10.0), (1.0, 30.0), (0.5, 100.0)),
    ConvolutionSpec.of((1.0, 1.0), (2.0, 2.0), (0.5, 5.0), (1.5, 12.0), (0.8, 30.0), (2.5, 60.0)),
]


class TestWeightLaw:
    @pytest.mark.parametrize("spec", LAW_SPECS)
    def test_nb_sum_law_equals_recursion(self, spec):
        # The recursion is the oracle for the convolved NB pmfs.
        law = methods.nb_sum_law(canonicalize(spec))
        want = moschopoulos.build_weights(spec, law.masses.shape[0] - 1).masses
        assert np.max(np.abs(law.masses - want) / want) < 1e-12

    @pytest.mark.parametrize("spec", LAW_SPECS)
    def test_extended_stage_keeps_head(self, spec):
        # The CDF's value-relative stop needs every law to be an exact
        # prefix of the one it grows to.
        spec = canonicalize(spec)
        recursion = moschopoulos.first_weights(spec, DEFAULT_CONTROL)
        for law in (methods.nb_sum_law(spec), recursion):
            for _ in range(3):
                size = law.masses.shape[0]
                longer = law.grow((size - 1) * 3 // 2 + 64)
                assert longer.masses.shape[0] == int((size - 1) * 1.5) + 65
                assert np.array_equal(longer.masses[:size], law.masses)
                law = longer

    @pytest.mark.parametrize("seed", range(8))
    def test_blocked_convolution_at_block_edges(self, seed):
        # Each law is a bit-exact prefix of a longer one at every count,
        # on either side of the block edges and where the last block holds
        # 11 or fewer masses, and within rounding of np.convolve's full
        # product over the same pmfs.
        rng = random.Random(seed)
        spec = canonicalize(random_spec(rng, 3 + seed % 4))
        longest = methods.nb_sum_law(spec, count=3001).masses
        b1 = spec.components[0].scale
        pmfs = [methods._nb_masses(c.shape, b1 / c.scale, 3001) for c in spec.components[1:]]
        for count in [*range(1, 41), *range(255, 268), *range(511, 524), 1000, 3000]:
            masses = methods.nb_sum_law(spec, count=count).masses
            assert np.array_equal(masses, longest[:count])
            want = functools.reduce(lambda law, pmf: np.convolve(law, pmf)[:count],
                                    [pmf[:count] for pmf in pmfs])
            kept = want >= 1e-300
            assert np.all(np.abs(masses[kept] - want[kept]) <= 2e-15 * want[kept])

    def test_prefix_totals_are_np_sums_of_each_prefix(self):
        # The CDF rows take every row's W_(L-1) in one reduceat; each must
        # be np.sum of its prefix alone, bit for bit, in any order, about
        # the pairwise sum's 8- and 128-entry blocks, past numpy's 8,192-
        # entry buffer and at the whole table.
        rng = np.random.default_rng(20261022)
        masses = rng.random(10_001) ** 4
        masses /= masses.sum()
        law = methods.WeightLaw(masses, 2.5, 1.0)
        sizes = [*range(1, 20), 127, 128, 129, 8191, 8192, 8193, 10_001,
                 *rng.integers(1, 10_002, 200).tolist()]
        rng.shuffle(sizes)
        want = [float(masses[:size].sum()) for size in sizes]
        assert law.prefix_totals(sizes) == want
        assert want == [law.prefix_total(size) for size in sizes]
        assert [law.prefix_totals([size])[0] for size in sizes[:20]] == want[:20]

    @pytest.mark.parametrize("first", [
        lambda spec: methods.nb_sum_law(spec, count=300),
        lambda spec: moschopoulos.build_weights(spec, 299),
    ], ids=["nbsum", "recursion"])
    def test_law_grows_only_past_its_end(self, monkeypatch, first):
        # The law's mass sits near k = 470.  Rows that start at 40 of its
        # 300 masses move to 123 and 248 masses within it, with no build,
        # then to 435, 716 and on past its end, with one build a move.
        spec = canonicalize(ConvolutionSpec.of((2.0, 1.0), (20.0, 10.0), (10.0, 30.0)))
        law = first(spec)
        events = []
        for module, name in ((methods, "nb_sum_law"), (moschopoulos, "extend_weights")):
            def build(*args, real=getattr(module, name), **kwargs):
                events.append("build")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, build)
        real_rows = methods.mixture_rows

        def rows(quantity, law, xs, sizes):
            events.append((max(sizes), law.masses.shape[0]))
            return real_rows(quantity, law, xs, sizes)

        monkeypatch.setattr(methods, "mixture_rows", rows)
        mean = float(spec.shapes @ spec.scales)
        methods.converge_rows("density", [0.3 * mean, mean, 2.0 * mean], DEFAULT_CONTROL,
                              law, [40] * 3)
        seen = [event for event in events if event != "build"]
        want = seen[:1]
        for (_, end), (size, grown) in zip(seen, seen[1:]):
            want += ["build"] * (size > end) + [(size, grown)]
        assert events == want
        assert [size for size, _ in seen[:5]] == [40, 123, 248, 435, 716]

    def test_infinite_cumulants_raise_before_building(self):
        # Past a scale ratio of about 1e108 the cumulants are infinite, and
        # no stage within max_terms could hold the law.
        spec = canonicalize(ConvolutionSpec.of((2.0, 1e-110), (3.0, 1.0)))
        for build in (methods.nb_sum_law, moschopoulos.first_weights):
            with pytest.raises(ConvergenceError) as failed:
                build(spec, DEFAULT_CONTROL)
            assert failed.value.terms_used == 0

    def test_nb_sum_law_matches_mpmath_at_large_shapes(self):
        # NB(500, 2/3): a log q - lgamma(a) + lgamma(a + k) cancels terms
        # near a log a = 3100 unless the log-mass is taken as one form.
        spec = canonicalize(ConvolutionSpec.of((500.0, 1.0), (500.0, 1.5)))
        masses = methods.nb_sum_law(spec).masses
        a, q = mp.mpf(500), mp.mpf(1.0 / 1.5)
        with mp.workdps(40):
            want = [
                float(mp.exp(mp.loggamma(a + k) - mp.loggamma(a) - mp.loggamma(k + 1)
                             + a * mp.log(q) + k * mp.log(1 - q)))
                for k in range(masses.shape[0])
            ]
        assert np.max(np.abs(masses - want) / want) < 1e-13

    def test_poisson_masses_match_mpmath(self):
        # Each mass is within a few units of rounding of its logarithm.
        with mp.workdps(30):
            for mean in (0.3, 5.0, 7.7, 80.0, 2000.0):
                got = methods.poisson_masses(mean, int(mean + 12 * math.sqrt(mean)) + 40)
                lam = mp.mpf(mean)
                want = np.array([float(mp.exp(m * mp.log(lam) - lam - mp.loggamma(m + 1)))
                                 for m in range(got.shape[0])])
                kept = want > 1e-300
                err = np.abs(got[kept] - want[kept]) / want[kept]
                assert np.all(err < 32 * 2.2e-16 / 2 * (1.0 + np.abs(np.log(want[kept]))))

    @pytest.mark.parametrize("z", [
        np.exp(np.linspace(math.log(1e-3), math.log(15.0), 37)),
        np.arange(16.0, 1000.0, 3.0),
        np.concatenate((np.arange(200.0, 10.0, -7.0), [15.0, 15.5, 0.25])),
        np.array([]),
    ], ids=["all-small", "all-large", "mixed", "empty"])
    def test_stirling_error_equals_masked_form(self, z):
        # The masked two-branch evaluation, kept as the reference: each
        # entry at most 15 alone, the rest by the written-out series.
        # Taking every entry in one array must not change a bit.
        want = np.empty_like(z)
        small = z <= 15.0
        want[small] = [specfun.stirling_error(np.array([v]))[0] for v in z[small].tolist()]
        u = 1.0 / z[~small]
        u2 = u * u
        want[~small] = u * (1.0 / 12.0 - u2 * (1.0 / 360.0 - u2 * (1.0 / 1260.0 - u2 * (
            1.0 / 1680.0 - u2 * (1.0 / 1188.0 - u2 * (691.0 / 360360.0 - u2 / 156.0))))))
        got = specfun.stirling_error(z)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cut_density_stays_within_rel_tol_of_the_full_stage(self):
        # The density over the point's cut stage against the same mixture
        # over the law's whole cumulant stage, uncut.
        rng = random.Random(17)
        worst = 0.0
        for _ in range(40):
            spec = canonicalize(random_spec(rng, rng.randint(3, 5)))
            mean = float(spec.shapes @ spec.scales)
            sd = math.sqrt(float(spec.shapes @ spec.scales**2))
            for x in (1e-3 * mean, 0.2 * mean, mean, mean + 2.0 * sd, mean + 5.0 * sd):
                cut = methods.nbsum_density(spec, x)
                full = converge_whole_law("density", x, DEFAULT_CONTROL,
                                          methods.nb_sum_law(spec, DEFAULT_CONTROL))
                assert cut.tail_bound <= DEFAULT_CONTROL.rel_tol * cut.value
                worst = max(worst, rel_err(cut.value, full.value))
        assert worst <= DEFAULT_CONTROL.rel_tol

    def test_extension_stops_at_max_terms(self, monkeypatch):
        # A moving row's size goes from K to 1.5 K + 64, capped at
        # max_terms and at a fitted table's end.  Past the cap the exact
        # law raises; a fitted one answers the row as it stands.
        sizes = []
        real = methods.mixture_rows

        def rows(quantity, law, xs, row_sizes):
            sizes.append(list(row_sizes))
            return real(quantity, law, xs, row_sizes)

        monkeypatch.setattr(methods, "mixture_rows", rows)
        law = methods.nb_sum_law(canonicalize(SPEC3), count=100)
        with pytest.raises(ConvergenceError) as failed:
            methods.converge_rows("density", [300.0], SeriesControl(max_terms=120), law, [100])
        assert sizes == [[100], [121]] and failed.value.terms_used == 121
        for table, ctrl, last in ((300, SeriesControl(max_terms=50), 51),
                                  (40, DEFAULT_CONTROL, 40)):
            sizes.clear()
            law = methods.WeightLaw(stats.nbinom.pmf(np.arange(table), 2.0, 0.05), 1.2, 1.0)
            row = methods.converge_rows("density", [40.0], ctrl, law, [10])[0]
            assert sizes == [[10], [last]] and row.terms_used == last
            assert row.tail_bound > ctrl.rel_tol * row.value


class TestRegistry:
    def test_auto_rule(self):
        # mathai up to two components.  Past that nbsum, unless the
        # recursion is predicted to build the law's first stage of K masses
        # more cheaply: at n = 8 from K of about 5,000, below n = 8 never
        # below the 10,000 cap.
        def auto(*components):
            spec = canonicalize(ConvolutionSpec.of(*components))
            mean, var, _ = methods.nb_sum_cumulants(spec)
            k = min(mean + 12.0 * math.sqrt(var), DEFAULT_CONTROL.max_terms) + 32.0
            return methods.lookup("auto", spec), k

        assert auto((2.0, 3.0))[0].name == "mathai"
        chosen, _ = auto((1.0, 2.0), (2.0, 3.0))
        assert chosen.name == "mathai" and chosen.cdf is mathai.cdf_n
        chosen, k = auto((2.0, 2.0), (2.0, 3.0), (2.0, 5.0))
        assert chosen.name == "nbsum" and k < 200
        assert chosen.density is methods.nbsum_density and chosen.cdf is methods.nbsum_cdf
        for n in (3, 5, 7):
            chosen, k = auto(*[(20.0, 10.0 ** (4 * j / (n - 1))) for j in range(n)])
            assert chosen.name == "nbsum" and k == 10_032
        octave = [(1.0, 2.0**j) for j in range(7)]
        chosen, k = auto(*octave, (1.0, 350.0))
        assert chosen.name == "nbsum" and 4_500 < k < 5_000
        chosen, k = auto(*octave, (1.0, 400.0))
        assert chosen.name == "moschopoulos" and 5_000 < k < 5_800
        # The convolution's cost grows with n and the recursion's does not.
        chosen, k = auto(*[(1.0, 1000.0 ** (j / 19)) for j in range(20)])
        assert chosen.name == "moschopoulos" and k == 10_032
        assert methods.lookup("approx", canonicalize(SPEC2)).name == "approx"

    def test_auto_prices_the_stage_the_points_need(self, capsys):
        # At n = 8 the cumulant stage holds about 6,700 masses, past the
        # crossover, so without points auto takes the recursion.  Both
        # routes' stages are cut at the farthest point's kernel, for the
        # density and the CDF alike: bulk points cut them to at most about
        # 1,600 masses and take nbsum, while a point at 8,000 leaves the
        # stage past the crossover and takes the recursion for either.
        spec = canonicalize(ConvolutionSpec.of(*[(1.0, 2.0**j) for j in range(7)], (1.0, 500.0)))
        mean = float(spec.shapes @ spec.scales)
        points = [0.5 * mean, mean, 2.0 * mean]
        assert methods.lookup("auto", spec).name == "moschopoulos"
        assert methods.lookup("auto", spec, [10.0, 60.0]).name == "nbsum"
        assert methods.lookup("auto", spec, points).name == "nbsum"
        assert methods.lookup("auto", spec, [3000.0, 8000.0]).name == "moschopoulos"
        for quantity, fn in (("density", moschopoulos.density), ("cdf", moschopoulos.cdf)):
            rows = cli_rows(capsys, "auto", quantity, spec, points)
            assert {row["method"] for row in rows} == {"nbsum"}
            want = [fn(spec, x).value for x in points]
            assert max(rel_err(row["value"], w) for row, w in zip(rows, want)) <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            methods.lookup("nope", canonicalize(SPEC2))

    def test_cli_calls_the_module_attribute(self, capsys, monkeypatch):
        calls = []

        def fake(spec, x, ctrl):
            calls.append(x)
            return EvalResult(0.25, 1, 0.0)

        monkeypatch.setattr(mathai, "density2", fake)
        code = cli.main(["eval", "density", "--shape", "1,2", "--scale", "1,2",
                         "--at", "1,2", "--format", "json"])
        assert code == cli.EXIT_OK
        assert calls == [1.0, 2.0]
        assert [row["value"] for row in json.loads(capsys.readouterr().out)] == [0.25, 0.25]


def paper_points(spec, count=12):
    """`count` points across mean +- 3 sd, kept positive."""
    mean = float(spec.shapes @ spec.scales)
    sd = math.sqrt(float(spec.shapes @ spec.scales**2))
    lo = max(mean - 3.0 * sd, 0.05 * mean)
    return [float(x) for x in np.linspace(lo, mean + 3.0 * sd, count)]


def cli_rows(capsys, method, quantity, spec, points):
    code = cli.main(["eval", quantity,
                     "--shape", ",".join(repr(float(a)) for a in spec.shapes),
                     "--scale", ",".join(repr(float(b)) for b in spec.scales),
                     "--method", method, "--format", "json",
                     "--at", ",".join(repr(x) for x in points)])
    assert code == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


class TestEvaluate:
    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_cli_rows_equal_per_point_calls(self, capsys, n, quantity):
        settings = bench.TABLE1_SETTINGS if n == 2 else bench.TABLE2_SETTINGS
        for alpha, scales in settings:
            spec = bench.spec_for(alpha, scales)
            points = paper_points(spec)
            # the paper compares the approximation on n = 3 only
            for method in ("moschopoulos", "mathai", "nbsum") + (("approx",) if n == 3 else ()):
                fn = route_fn(method, n, quantity)
                rows = cli_rows(capsys, method, quantity, spec, points)
                for x, row in zip(points, rows):
                    want = fn(spec, x)
                    assert (row["value"], row["terms_used"]) == (want.value, want.terms_used)

    @pytest.mark.parametrize("method", ["moschopoulos", "mathai", "nbsum", "approx"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_left_tail_cdf_rows_equal_per_point_calls(self, n, method):
        # Below u = y/b1 = 64 a row starts from the shared law sliced at the
        # point's kernel cut, a per-point call from a stage built to it.
        settings = bench.TABLE1_SETTINGS if n == 2 else bench.TABLE2_SETTINGS
        shorter = 0
        for alpha, scales in settings:
            spec = canonicalize(bench.spec_for(alpha, scales))
            chosen = methods.lookup(method, spec)
            size = chosen.cdf_law(spec, chosen.control).masses.shape[0]
            b1 = float(spec.scales[0])
            points = [u * b1 for u in (0.05, 0.5, 3.0, 12.0, 30.0, 50.0, 63.9)]
            rows = methods.evaluate(method, "cdf", spec, points)
            for x, row in zip(points, rows):
                want = chosen.cdf(spec, x)
                assert (row.value, row.terms_used) == (want.value, want.terms_used)
                shorter += row.terms_used < size
        assert shorter >= 3 * len(settings)

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_nbsum_equals_moschopoulos_on_table2_grids(self, quantity):
        # The same law built two ways, by convolution and by the recursion.
        for alpha, scales in bench.TABLE2_SETTINGS:
            spec = bench.spec_for(alpha, scales)
            grid = [float(x) for x in bench.bulk_grid(spec)]
            got = methods.evaluate("nbsum", quantity, spec, grid)
            want = methods.evaluate("moschopoulos", quantity, spec, grid)
            assert max(rel_err(g.value, w.value) for g, w in zip(got, want)) <= 1e-12

    def test_rows_equal_per_point_calls_on_seeded_specs(self):
        # Seeded specs of two to five components, and points that reach every
        # branch of a row: x = 0, u = y/b1 just below and above 64 (the
        # gammainc sum and the kernel sums), the deep left tail, the bulk and
        # right-tail points whose stage extends.  Every row must equal the
        # per-point call on its point alone, as a whole EvalResult.  One
        # spec merges into a single component, settled by the entry check;
        # in another the law's mass sits far past k = 0 (C is about e^-80),
        # so left-tail rows cut at their kernel extend too.
        routes = [("moschopoulos", "density"), ("moschopoulos", "cdf"), ("nbsum", "density"),
                  ("nbsum", "cdf"), ("approx", "density"), ("approx", "cdf"), ("mathai", "cdf")]
        seen = set()
        specs = [canonicalize(random_spec(random.Random(4100 + n), n, shape_hi=30.0))
                 for n in (2, 3, 4, 5)]
        specs.append(canonicalize(ConvolutionSpec.of((1.0, 1.5), (1.5, 1.5))))
        specs.append(canonicalize(ConvolutionSpec.of((2.0, 1.0), (20.0, 10.0), (10.0, 30.0))))
        for spec in specs:
            b1 = float(spec.scales[0])
            mean = float(spec.shapes @ spec.scales)
            sd = math.sqrt(float(spec.shapes @ spec.scales**2))
            points = [0.0, 63.9 * b1, 64.1 * b1, 1e-4 * mean, 0.05 * mean, 0.3 * mean,
                      max(mean - 2.0 * sd, 0.5 * mean), mean, mean + 4.0 * sd,
                      mean + 12.0 * sd, mean + 30.0 * sd]
            random.Random(len(spec)).shuffle(points)
            for method, quantity in routes:
                chosen = methods.lookup(method, spec)
                try:
                    want = [getattr(chosen, quantity)(spec, x) for x in points]
                except FitFailureError:
                    with pytest.raises(FitFailureError):
                        methods.evaluate(method, quantity, spec, points)
                    seen.add("fit failure")
                    continue
                rows = methods.evaluate(method, quantity, spec, points)
                assert rows == want
                if len(spec) == 1:
                    continue
                first = getattr(chosen, f"{quantity}_law")(spec, chosen.control).masses.shape[0]
                for row in rows:
                    if row.terms_used > first:
                        seen.add(f"{quantity} extended")
                    if method == "approx" and row.terms_used == first and (
                            row.tail_bound > chosen.control.rel_tol * row.value):
                        seen.add("fitted law at its table's end")
        assert seen == {"density extended", "cdf extended", "fit failure",
                        "fitted law at its table's end"}

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_point_anywhere_raises_before_any_law_is_built(self, monkeypatch, bad):
        builds = []

        def counted(module, name):
            real = getattr(module, name)

            def build(*args, **kwargs):
                builds.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, build)

        for module, name in ((methods, "nb_sum_law"), (moschopoulos, "build_weights"),
                             (barnabani, "approx_law"), (mathai, "ShellTable")):
            counted(module, name)
        for spec in (SPEC2, SPEC3):
            for position in range(4):
                points = [1.0, 2.0, 3.0, 4.0]
                points[position] = bad
                for method in methods.METHODS + ("auto",):
                    for quantity in ("density", "cdf"):
                        with pytest.raises(DomainError):
                            methods.evaluate(method, quantity, spec, points)
        assert builds == []
        methods.evaluate("nbsum", "cdf", SPEC3, [1.0, 2.0])
        assert builds == ["nb_sum_law"]

    def test_cut_density_rows_equal_per_point_calls(self):
        # C = prod (b1/b_i)^a_i is about e^-80 here, so the law's mass sits
        # far past k = 0: at 0.3 x the mean the point's cut stage is too
        # short and extends; at 1e-3 x the mean it is not.  The bulk points
        # converge on their cuts; 6 sd out the cut stage extends, 10 sd out
        # the first stage is the law's cumulant stage, and extends too.
        spec = canonicalize(ConvolutionSpec.of((2.0, 1.0), (20.0, 10.0), (10.0, 30.0)))
        mean = float(spec.shapes @ spec.scales)
        sd = math.sqrt(float(spec.shapes @ spec.scales**2))
        points = [mean + 10.0 * sd, 1e-3 * mean, 0.0, 0.3 * mean, mean, mean + 3.0 * sd,
                  mean + 6.0 * sd, 0.7 * mean]
        rows = methods.evaluate("nbsum", "density", spec, points)
        assert rows == [methods.nbsum_density(spec, x) for x in points]
        full = methods.nb_sum_law(spec, DEFAULT_CONTROL).masses.shape[0]
        first = [min(full, methods._kernel_cut(spec, x) + 1) for x in points]
        sizes = [row.terms_used for row in rows]
        assert sizes[1] == first[1] < sizes[3] and first[3] < sizes[3] < full
        assert sizes[4] == first[4] < full
        assert first[6] < full < sizes[6] and first[0] == full < sizes[0]

    @pytest.mark.parametrize("quantity,points", [
        ("density", [30.0, 80.0, 160.0, 130.0, 260.0]),
        ("cdf", [2.0, 30.0, 63.0, 10.0]),
        ("cdf", [30.0, 1.0, 160.0]),
    ], ids=["density", "cdf-below-64", "cdf-past-64"])
    def test_shared_stage_ends_at_the_farthest_cut(self, monkeypatch, quantity, points):
        # b1 = 1, so u = x; the mean is 136.5.  No row here extends its
        # stage, so the request builds exactly one: to the cut of its
        # largest point, short of the law's whole first stage, for the
        # density and for a CDF on either side of u = 64.
        builds = []
        real = methods.nb_sum_law

        def counted(spec, ctrl=None, count=None, upto=math.inf):
            law = real(spec, ctrl, count, upto)
            builds.append(law.masses.shape[0])
            return law

        spec = canonicalize(ConvolutionSpec.of((0.5, 1.0), (4.0, 5.0), (3.0, 12.0), (2.0, 40.0)))
        full = real(spec, DEFAULT_CONTROL).masses.shape[0]
        monkeypatch.setattr(methods, "nb_sum_law", counted)
        rows = methods.evaluate("nbsum", quantity, spec, points)
        want = methods._kernel_cut(spec, max(points)) + 1
        assert builds == [want] and max(row.terms_used for row in rows) == want
        assert want < full

    @staticmethod
    def builds_to_its_own_cut(monkeypatch, quantity, route, y):
        # b1 = 1, so u = y, from 64 on; the mean is 136.5.  A per-point
        # density or CDF builds its exact law to the point's cut (the
        # approximation's table is whole) and converges on that prefix,
        # within 1e-15 of the row over the whole uncut first law.
        spec = canonicalize(ConvolutionSpec.of((0.5, 1.0), (4.0, 5.0), (3.0, 12.0), (2.0, 40.0)))
        cut = methods._kernel_cut(spec, y)
        builds = []
        if route == "nbsum":
            fn = getattr(methods, f"nbsum_{quantity}")
            ctrl, whole = DEFAULT_CONTROL, methods.nb_sum_law
            real = methods.nb_sum_law

            def counted(spec, ctrl=None, count=None, upto=math.inf):
                builds.append(upto)
                return real(spec, ctrl, count, upto)

            monkeypatch.setattr(methods, "nb_sum_law", counted)
        elif route == "moschopoulos":
            fn = getattr(moschopoulos, quantity)
            ctrl, whole = DEFAULT_CONTROL, moschopoulos.first_weights
            real = moschopoulos.build_weights

            def counted(spec, upto):
                builds.append(upto)
                return real(spec, upto)

            monkeypatch.setattr(moschopoulos, "build_weights", counted)
        else:
            fn = getattr(barnabani, f"{quantity}_approx")
            ctrl, whole = barnabani.CONTROL_APPROX, barnabani.approx_law
        got = fn(spec, y)
        assert builds == ([] if route == "approx" else [cut])
        law = whole(spec, ctrl)
        assert got.terms_used == cut + 1 < law.masses.shape[0]
        uncut = methods.converge_rows(quantity, [y], ctrl, law, [law.masses.shape[0]])[0]
        assert rel_err(got.value, uncut.value) <= 1e-15

    @pytest.mark.parametrize("route", ["nbsum", "moschopoulos", "approx"])
    @pytest.mark.parametrize("y", [100.0, 160.0, 260.0])
    def test_cdf_past_64_builds_to_its_own_cut(self, monkeypatch, route, y):
        self.builds_to_its_own_cut(monkeypatch, "cdf", route, y)

    @pytest.mark.parametrize("route", ["nbsum", "moschopoulos", "approx"])
    @pytest.mark.parametrize("y", [100.0, 160.0, 260.0])
    def test_density_past_64_builds_to_its_own_cut(self, monkeypatch, route, y):
        self.builds_to_its_own_cut(monkeypatch, "density", route, y)

    def test_one_weight_build_per_request(self, capsys, monkeypatch):
        builds = []
        real = moschopoulos.build_weights

        def counted(spec, upto):
            builds.append(upto)
            return real(spec, upto)

        monkeypatch.setattr(moschopoulos, "build_weights", counted)
        spec = bench.spec_for(2.0, (4.0, 3.0, 0.2))
        for quantity in ("density", "cdf"):
            rows = cli_rows(capsys, "moschopoulos", quantity, spec, paper_points(spec, 40))
            assert len(rows) == 40
        assert len(builds) == 2

    @pytest.mark.parametrize("quantity", ["density", "cdf"])
    def test_mixed_grid_matches_per_point(self, quantity):
        # x = 0 is answered by the entry check, 3 and 8 converge on their
        # cuts, short of the first table; 200 and 500 cut past its end, and
        # their densities need it grown past their kernel peaks.
        spec = ConvolutionSpec.of((2.0, 1.0), (2.0, 2.0))
        points = [0.0, 3.0, 500.0, 8.0, 200.0]
        fn = route_fn("moschopoulos", 2, quantity)
        got = methods.evaluate("moschopoulos", quantity, spec, points)
        assert got == [fn(spec, x) for x in points]
        first = moschopoulos.first_weights(canonicalize(spec), DEFAULT_CONTROL).masses.shape[0]
        for i in (1, 3):
            assert got[i].terms_used == methods._kernel_cut(canonicalize(spec), points[i]) + 1 < first
        if quantity == "density":
            assert first < got[4].terms_used < got[2].terms_used

    def test_nan_last_point_exits_before_any_row(self, capsys):
        code = cli.main(["eval", "density", "--shape", "1,2,3", "--scale", "1,2,3",
                         "--method", "moschopoulos", "--at", "1,2,nan"])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_mathai_shell_table_rows_do_not_depend_on_the_grid(self):
        # Each row equals the point evaluated against a table of its own,
        # so the other points of a request, and their order, do not matter.
        spec = canonicalize(bench.spec_for(20.0, (4.0, 0.3, 0.2)))
        points = paper_points(spec, 20)
        rows = methods.evaluate("mathai", "density", spec, points)
        for x, row in zip(points, rows):
            assert row == mathai.density_n(spec, x)
        order = np.random.default_rng(7).permutation(len(points))
        shuffled = methods.evaluate("mathai", "density", spec, [points[i] for i in order])
        assert shuffled == [rows[i] for i in order]

    def test_mathai_shell_table_computes_each_shell_once(self, capsys, monkeypatch):
        ranges = []
        real = mathai._log_convolve

        def spy(log_a, log_b, start=0, stop=None):
            ranges.append((start, stop))
            return real(log_a, log_b, start, stop)

        monkeypatch.setattr(mathai, "_log_convolve", spy)
        spec = bench.spec_for(20.0, (4.0, 3.0, 0.2))
        cli_rows(capsys, "mathai", "density", spec, paper_points(spec, 40)[::-1])
        assert len(ranges) > 1
        assert ranges[0][0] == 0
        assert all(prev[1] == cur[0] for prev, cur in zip(ranges, ranges[1:]))

    def test_mathai_shell_table_stops_at_max_terms(self, capsys):
        spec = bench.spec_for(2.0, (4.0, 3.0, 0.2))
        x = paper_points(spec)[-1]
        tight = SeriesControl(rel_tol=1e-13, max_terms=40)
        with pytest.raises(ConvergenceError) as per_point:
            mathai.density_n(spec, x, tight)
        with pytest.raises(ConvergenceError) as shared:
            methods.evaluate("mathai", "density", spec, [1.0, x], tight)
        assert shared.value.terms_used == per_point.value.terms_used > 0
        code = cli.main(["eval", "density", "--shape", "2,2,2", "--scale", "4,3,0.2",
                         "--method", "mathai", "--max-terms", "40", "--at", f"1,{x!r}"])
        assert code == cli.EXIT_NONCONVERGENCE
        assert "not converged after 40 shells" in capsys.readouterr().err

    def test_first_tables_honour_max_terms(self):
        # Uncapped, the first tables here hold 161,472, about 190,000 and
        # 19,818,097 terms against caps of 10,000, 10,000 and 200,000.
        spec = ConvolutionSpec.of((2.0, 1e-3), (2.0, 10.0))
        for fn in (moschopoulos.density, mathai.cdf_n):
            start = time.perf_counter()
            with pytest.raises(ConvergenceError) as failed:
                fn(spec, 20.0)
            assert time.perf_counter() - start < 1.0
            assert failed.value.terms_used == DEFAULT_CONTROL.max_terms + 1
        try:
            size = barnabani.density_approx(spec, 20.0).terms_used
        except GammaConvError:
            size = 0
        assert size <= barnabani.CONTROL_APPROX.max_terms + 1

    def test_convergence_failure_matches_per_point(self):
        # At x = 1000 the kernel peaks near k = 5000, past a table capped at
        # 8 terms beyond its first size.
        spec = ConvolutionSpec.of((2.0, 0.2), (2.0, 40.0))
        first = moschopoulos.first_weights(spec, DEFAULT_CONTROL).upto + 1
        tight = SeriesControl(rel_tol=1e-13, max_terms=first + 8)
        with pytest.raises(ConvergenceError) as per_point:
            moschopoulos.density(spec, 1000.0, tight)
        with pytest.raises(ConvergenceError) as shared:
            methods.evaluate("moschopoulos", "density", spec, [1.0, 1000.0], tight)
        assert shared.value.terms_used == per_point.value.terms_used == first + 9


#: `eval` density and CDF at n = 1, 2, 3 through every method and auto, and
#: `renewal` through every route at S = 1, 2, 3: the request path.
REQUESTS = [
    ["eval", quantity, "--shape", shapes, "--scale", scales, "--at", "0.5,3", "--method", method]
    for quantity in ("density", "cdf")
    for shapes, scales in (("2.5", "1.5"), ("1,2", "1,2"), ("2,3,1.5", "1,2,3"))
    for method in (*methods.METHODS, "auto")
] + [
    ["renewal", "--weights", weights, "--scales", scales, "--t", "2", "--n", "0,2,5",
     "--method", route]
    for weights, scales in (("1", "2"), ("0.4,0.6", "1,3"), ("0.2,0.3,0.5", "1,2,3"))
    for route in renewal.RENEWAL_METHODS
]


def _serve_in_subprocess(prelude: str, requests=REQUESTS) -> str:
    """Run `prelude`, then every `requests` argv through cli.main, in a
    fresh interpreter; returns its stdout."""
    code = (
        prelude
        + "import sys\n"
        "from gammaconv.cli import main\n"
        f"for argv in {requests!r}:\n"
        "    code = main(argv)\n"
        "    print('EXIT', code, argv)\n"
        "loaded = [m for m in ('gammaconv.bench', 'gammaconv.oracle', 'scipy') if m in sys.modules]\n"
        "print('LOADED', loaded)\n"
    )
    src = str(Path(gammaconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def test_request_path_does_not_import_bench():
    # Nor scipy: eval and renewal load numpy alone.
    out = _serve_in_subprocess("")
    assert "LOADED []" in out
    assert out.count("EXIT 0 ") == len(REQUESTS)


def test_request_path_serves_without_scipy():
    # With scipy unimportable, every request still exits 0.
    out = _serve_in_subprocess("import sys\nsys.modules['scipy'] = None\n")
    assert out.count("EXIT 0 ") == len(REQUESTS), out


def test_bench_and_figure_error_run_without_scipy():
    # The commands off the request path need numpy alone too.
    commands = [["bench", "--suite", "renew2", "--replicates", "1"],
                ["figure-error", "--setup", "1"]]
    out = _serve_in_subprocess("import sys\nsys.modules['scipy'] = None\n", commands)
    assert out.count("EXIT 0 ") == len(commands), out


@pytest.mark.parametrize(
    "module", ["__init__", *sorted(m.name for m in pkgutil.iter_modules(gammaconv.__path__))]
)
def test_every_exported_name_resolves(module):
    # perfbench/tracer.py looks up every name in the layer modules'
    # __all__, so a retired name left there would crash every traced run.
    mod = gammaconv if module == "__init__" else importlib.import_module(f"gammaconv.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
