"""Tests of the shared entry check, the mixture evaluator and the registry."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import gammaconv
from gammaconv import cli, mathai, methods
from gammaconv.errors import DomainError
from gammaconv.model import ConvolutionSpec, EvalResult

from conftest import rel_err

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
    return getattr(methods.lookup(method, n), quantity)


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


class TestMixture:
    def test_matches_direct_sum(self):
        masses = stats.nbinom.pmf(np.arange(40), 2.0, 0.6)
        rho, beta1 = 1.7, 0.8
        for x in (0.3, 2.0, 9.0):
            value, tail = methods.mixture_density(masses, rho, beta1, x)
            want = sum(
                w * stats.gamma.pdf(x, rho + k, scale=beta1)
                for k, w in enumerate(masses)
            )
            assert rel_err(value, want) < 1e-12
            assert 0.0 <= tail < 1e-12
            value, tail = methods.mixture_cdf(masses, rho, beta1, x)
            want = sum(
                w * stats.gamma.cdf(x, rho + k, scale=beta1)
                for k, w in enumerate(masses)
            )
            assert rel_err(value, want) < 1e-12

    def test_tail_covers_left_out_terms(self):
        masses = stats.nbinom.pmf(np.arange(60), 2.0, 0.6)
        for x in (0.5, 4.0, 20.0):
            for mixture in (methods.mixture_density, methods.mixture_cdf):
                full, _ = mixture(masses, 1.2, 1.0, x)
                short, tail = mixture(masses[:6], 1.2, 1.0, x)
                assert 0.0 <= full - short <= tail


class TestRegistry:
    def test_auto_rule(self):
        assert methods.lookup("auto", 1).name == "mathai"
        assert methods.lookup("auto", 2).cdf is mathai.cdf2
        assert methods.lookup("auto", 3).name == "moschopoulos"
        assert methods.lookup("approx", 2).name == "approx"

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            methods.lookup("nope", 2)

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


def test_request_path_does_not_import_bench():
    code = (
        "import sys\n"
        "from gammaconv.cli import main\n"
        "assert main(['eval', 'cdf', '--shape', '1,2', '--scale', '1,2', '--at', '1']) == 0\n"
        "assert main(['renewal', '--weights', '0.5,0.5', '--scales', '1,2', "
        "'--t', '1', '--n', '2']) == 0\n"
        "loaded = [m for m in ('gammaconv.bench', 'gammaconv.oracle', 'scipy.integrate')"
        " if m in sys.modules]\n"
        "print('LOADED', loaded)\n"
    )
    src = str(Path(gammaconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert "LOADED []" in out
